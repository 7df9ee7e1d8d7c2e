package tensor

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// numericPackages are the packages whose float arithmetic reaches a
// checksum Definition 1 compares: weights, losses, scores, inputs.
var numericPackages = []string{
	"naspipe/internal/tensor",
	"naspipe/internal/layers",
	"naspipe/internal/train",
	"naspipe/internal/data",
	"naspipe/internal/supernet",
}

// fusedTargets are the GOARCHes whose compiler fuses x*y + z into one
// multiply-add unless the product is converted explicitly.
var fusedTargets = []string{"arm64", "ppc64le", "s390x", "riscv64", "loong64"}

// fusedOp matches every fused multiply-add mnemonic of those targets'
// assemblers: FMADDS, FMSUBD, FNMSUBS, FMADDF (loong64), FMADD (ppc64,
// s390x), and the vector forms (VFMLA, WFMADB, XSMADDADP).
var fusedOp = regexp.MustCompile(`^(FN?M(ADD|SUB)[A-Z]*|VFML[AS]|[VW]FN?M(A|S|ADD|SUB)[A-Z0-9]*|X[SV]N?M(ADD|SUB)[A-Z]*)$`)

// asmOp extracts the mnemonic of one line of `go build -gcflags=-S`.
var asmOp = regexp.MustCompile(`\.go:\d+\)\s+([A-Z][A-Z0-9.]*)`)

// TestNoFusedMultiplyAdd compiles the numeric packages for every target
// that can fuse and fails on any fused instruction. A fused x*y + z
// rounds once where amd64 rounds twice, so one fused site would move a
// weight bit and every pinned checksum on those hosts: each product
// that feeds an add is written float32(x*y) (float64 at float64 sites),
// which the Go spec forbids fusing. No emulator is needed; the go
// command caches the -S output, so a warm run takes well under a second
// per target.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	for _, arch := range fusedTargets {
		cmd := exec.Command(goTool, append([]string{"build", "-gcflags=-S"}, numericPackages...)...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOFLAGS=")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build -gcflags=-S: %v\n%s", arch, err, out)
		}
		var fused []string
		for _, line := range strings.Split(string(out), "\n") {
			if m := asmOp.FindStringSubmatch(line); m != nil && fusedOp.MatchString(m[1]) {
				fused = append(fused, strings.TrimSpace(line))
			}
		}
		if len(fused) > 0 {
			t.Errorf("GOARCH=%s: %d fused multiply-adds, first %s", arch, len(fused), fused[0])
		}
	}
}
