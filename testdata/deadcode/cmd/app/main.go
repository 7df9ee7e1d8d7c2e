package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var p lib.Policy = lib.Custom{}
	p.Init()
	fmt.Println(lib.Used(), p.Name(), darwinOnly())
}
