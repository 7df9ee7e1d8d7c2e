package hybrid

import (
	"fmt"
	"testing"
	"testing/quick"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

func mustUnion(t testing.TB, members ...supernet.Space) *Union {
	t.Helper()
	u, err := NewUnion("hybrid", members...)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewUnionGeometry(t *testing.T) {
	u := mustUnion(t, supernet.NLPc2, supernet.NLPc3)
	if u.Space.Blocks != 48 || u.Space.Choices != 48+24 {
		t.Fatalf("union geometry %dx%d", u.Space.Blocks, u.Space.Choices)
	}
	if u.offsets[0] != 0 || u.offsets[1] != 48 {
		t.Fatalf("offsets %d %d", u.offsets[0], u.offsets[1])
	}
}

func TestNewUnionRejectsMismatches(t *testing.T) {
	if _, err := NewUnion("x", supernet.NLPc2); err == nil {
		t.Fatal("single member must be rejected")
	}
	if _, err := NewUnion("x", supernet.NLPc2, supernet.CVc2); err == nil {
		t.Fatal("mixed domains must be rejected")
	}
	small := supernet.NLPc2.Scaled(10, 4)
	if _, err := NewUnion("x", supernet.NLPc2, small); err == nil {
		t.Fatal("mismatched block counts must be rejected")
	}
}

func TestInterleaveRoundRobinAndBands(t *testing.T) {
	u := mustUnion(t, supernet.NLPc2, supernet.NLPc3)
	subs := u.Interleave(1, 10)
	for i, sub := range subs {
		if sub.Seq != i {
			t.Fatalf("subnet %d has seq %d", i, sub.Seq)
		}
		m, err := u.MemberOf(sub)
		if err != nil {
			t.Fatal(err)
		}
		if m != i%2 {
			t.Fatalf("subnet %d from member %d, want %d", i, m, i%2)
		}
	}
	cross, err := u.CrossMemberShares(subs)
	if err != nil {
		t.Fatal(err)
	}
	if cross {
		t.Fatal("cross-member sharing must be impossible (disjoint bands)")
	}
}

func TestInterleaveMatchesSoloStreams(t *testing.T) {
	// Each member's projected sub-stream must equal the stream a solo run
	// of that member would sample under the same seed.
	u := mustUnion(t, supernet.NLPc2, supernet.NLPc3)
	subs := u.Interleave(7, 12)
	solo := [][]supernet.Subnet{
		supernet.Sample(supernet.NLPc2, 7, 6),
		supernet.Sample(supernet.NLPc3, 7, 6),
	}
	idx := []int{0, 0}
	for _, sub := range subs {
		m, local, err := u.Project(sub)
		if err != nil {
			t.Fatal(err)
		}
		want := solo[m][idx[m]]
		idx[m]++
		for b := range want.Choices {
			if local.Choices[b] != want.Choices[b] {
				t.Fatalf("member %d stream diverges from solo sampling", m)
			}
		}
	}
}

func TestHybridRunsAndIsReproducible(t *testing.T) {
	// The headline: a hybrid traverse trains reproducibly under CSP —
	// bitwise-equal weights across cluster sizes.
	u := mustUnion(t, supernet.NLPc2.Scaled(8, 3), supernet.NLPc3.Scaled(8, 2))
	subs := u.Interleave(3, 20)
	cfg := train.Config{Space: u.Space, Dim: 8, Seed: 3, BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
	var sums []uint64
	for _, d := range []int{2, 4} {
		p, _ := sched.New("naspipe")
		res, _ := engine.Run(engine.Config{
			Space: u.Space, Spec: cluster.Default(d), Seed: 3,
			Subnets: subs, RecordTrace: true,
		}, p)
		if res.Failed || res.Deadlock {
			t.Fatalf("hybrid run failed at D=%d: %+v", d, res.FailReason)
		}
		num, err := train.Replay(cfg, subs, res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, num.Checksum)
	}
	if sums[0] != sums[1] {
		t.Fatal("hybrid training not bitwise reproducible across GPU counts")
	}
}

func TestHybridDilutesDependencies(t *testing.T) {
	// Interleaving two spaces halves the effective dependency density the
	// scheduler faces: the hybrid's bubble ratio must undercut the denser
	// member's solo bubble.
	run := func(space supernet.Space, subs []supernet.Subnet) engine.Result {
		p, _ := sched.New("naspipe")
		res, _ := engine.Run(engine.Config{
			Space: space, Spec: cluster.Default(8), Seed: 5,
			NumSubnets: 120, Subnets: subs, InflightLimit: 48,
		}, p)
		return res
	}
	solo := run(supernet.NLPc3, nil)
	u := mustUnion(t, supernet.NLPc3, supernet.NLPc2)
	hybridRes := run(u.Space, u.Interleave(5, 120))
	if hybridRes.Failed || solo.Failed {
		t.Fatal("runs failed")
	}
	if hybridRes.BubbleRatio >= solo.BubbleRatio {
		t.Fatalf("hybrid bubble %.3f not below NLP.c3 solo %.3f",
			hybridRes.BubbleRatio, solo.BubbleRatio)
	}
}

// Property: every interleaved subnet projects back into a valid member
// subnet, and band membership alternates round-robin.
func TestQuickInterleaveValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		u, err := NewUnion("q", supernet.NLPc2.Scaled(6, 3), supernet.NLPc3.Scaled(6, 4))
		if err != nil {
			return false
		}
		subs := u.Interleave(seed, n)
		for i, sub := range subs {
			m, local, err := u.Project(sub)
			if err != nil || m != i%2 {
				return false
			}
			member := u.Members[m]
			for _, c := range local.Choices {
				if c < 0 || c >= member.Choices {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Project maps a union subnet back into its member space's coordinates.
func (u *Union) Project(sub supernet.Subnet) (member int, local supernet.Subnet, err error) {
	member, err = u.MemberOf(sub)
	if err != nil {
		return 0, supernet.Subnet{}, err
	}
	local = sub.Clone()
	for b := range local.Choices {
		local.Choices[b] -= u.offsets[member]
	}
	return member, local, nil
}

// CrossMemberShares reports whether any two subnets from different
// members share a layer: always false for streams built by Interleave
// (bands are disjoint).
func (u *Union) CrossMemberShares(subs []supernet.Subnet) (bool, error) {
	members := make([]int, len(subs))
	for i, s := range subs {
		m, err := u.MemberOf(s)
		if err != nil {
			return false, err
		}
		members[i] = m
	}
	for i := range subs {
		for j := i + 1; j < len(subs); j++ {
			if members[i] != members[j] && supernet.Shares(subs[i], subs[j]) {
				return true, nil
			}
		}
	}
	return false, nil
}

// MemberOf identifies which member a union subnet was sampled from, by
// its band. All of a subnet's choices lie in one band by construction;
// an inconsistent subnet returns an error.
func (u *Union) MemberOf(sub supernet.Subnet) (int, error) {
	if len(sub.Choices) == 0 {
		return 0, fmt.Errorf("hybrid: empty subnet")
	}
	m := u.bandOf(sub.Choices[0])
	for b, c := range sub.Choices {
		if u.bandOf(c) != m {
			return 0, fmt.Errorf("hybrid: subnet %d mixes bands at block %d", sub.Seq, b)
		}
	}
	return m, nil
}

func (u *Union) bandOf(choice int) int {
	for i := len(u.offsets) - 1; i >= 0; i-- {
		if choice >= u.offsets[i] {
			return i
		}
	}
	return 0
}
