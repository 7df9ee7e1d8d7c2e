//go:build darwin

package main

import "fixture/internal/lib"

func darwinOnly() int { return lib.DarwinOnly() }
