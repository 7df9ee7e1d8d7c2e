package lib

import "testing"

func TestDead(t *testing.T) {
	if Dead() != 2 {
		t.Fatal("Dead")
	}
}
