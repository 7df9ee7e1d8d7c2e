//go:build !darwin

package main

func darwinOnly() int { return 0 }
