//go:build amd64 && !race

package tensor

// fastPath names the kernels this build runs: SSE2 assembly.
const fastPath = "sse2"
