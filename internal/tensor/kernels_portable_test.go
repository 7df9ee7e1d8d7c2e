//go:build !amd64 || race

package tensor

// fastPath names the kernels this build runs: the portable Go loops.
const fastPath = "go"
