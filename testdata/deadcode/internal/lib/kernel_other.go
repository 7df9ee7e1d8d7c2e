//go:build !linux

package lib

func kernel() int { return 1 }
