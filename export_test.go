package naspipe

import (
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

// HookWeightFn routes every prefix weight function a Runner builds from
// here on through wrap (called once per build), until restore.
func HookWeightFn(wrap func(func(int) uint64) func(int) uint64) (restore func()) {
	orig := prefixChecksummer
	prefixChecksummer = func(tc train.Config, full []supernet.Subnet) func(int) uint64 {
		return wrap(orig(tc, full))
	}
	return func() { prefixChecksummer = orig }
}
