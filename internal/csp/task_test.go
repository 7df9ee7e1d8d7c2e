package csp

import "testing"

func TestKindString(t *testing.T) {
	if Forward.String() != "F" || Backward.String() != "B" {
		t.Fatal("kind strings wrong")
	}
}

func TestTaskString(t *testing.T) {
	tk := Task{Subnet: 5, Stage: 2, Kind: Backward}
	if got := tk.String(); got != "5B@2" {
		t.Fatalf("got %q", got)
	}
}
