package experiments

import (
	"context"
	"fmt"
	"strings"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
	"naspipe/internal/train"
)

// Table1 prints the seven search-space configurations (paper Table 1).
func Table1(ctx context.Context, o Options) string {
	tb := NewTable("Table 1: default evaluation setup of seven search spaces",
		"Search Space", "# Choice Blocks", "# Layer/Block", "Dataset", "Supernet Params")
	for _, sp := range supernet.Spaces() {
		net := supernet.Build(sp)
		tb.AddRow(sp.Name, sp.Blocks, sp.Choices, sp.Dataset, Params(net.TotalParamBytes()))
	}
	tb.AddNote("parameter counts derive from Table 5 swap-time-calibrated layer sizes")
	return tb.Render()
}

// table2Spaces are the six spaces of Table 2 (NLP.c0 is excluded there
// because the baselines cannot run it).
var table2Spaces = []supernet.Space{
	supernet.NLPc1, supernet.NLPc2, supernet.NLPc3,
	supernet.CVc1, supernet.CVc2, supernet.CVc3,
}

// Table2 reproduces the resource-consumption and micro-event table.
func Table2(ctx context.Context, o Options) string {
	o = o.withDefaults()
	tb := NewTable("Table 2: resource consumption and micro events (8 GPUs)",
		"Space", "System", "Para.", "Score", "Batch", "GPU Mem.", "GPU ALU", "CPU Mem.", "Exec.(s)", "Bub.", "Cache Hit")
	for _, sp := range table2Spaces {
		// Score column: numeric plane, one run per system class.
		scores := map[string]string{}
		for _, policy := range perfSystems {
			num, err := o.numericRun(ctx, sp, policy, o.GPUs)
			if err != nil {
				scores[policy] = "-"
				continue
			}
			loss := o.probeValLoss(o.numericCfg(sp), num.Net)
			scores[policy] = fmt.Sprintf("%.2f", train.Score(sp.Domain, loss))
		}
		for _, policy := range perfSystems {
			res := runPerf(ctx, o, sp, policy, o.GPUs, false)
			if res.Failed {
				tb.AddRow(sp.Name, res.Policy, "-", "-", "-", "-", "-", "-", "-", "-", "(exceeds GPU memory)")
				continue
			}
			para := res.CachedParamBytes
			if para == 0 {
				para = res.SupernetBytes
			}
			tb.AddRow(sp.Name, res.Policy,
				Params(para),
				scores[policy],
				res.Batch,
				Factor(res.GPUMemX),
				Factor(res.ALUTotal),
				Gigabytes(res.CPUMemBytes),
				fmt.Sprintf("%.2f", res.ExecMsAvg/1000),
				fmt.Sprintf("%.2f", res.BubbleRatio),
				cacheHitCell(res),
			)
		}
	}
	tb.AddNote("Score from the scaled numeric plane (monotone proxy units, see train.Score)")
	tb.AddNote("bubble ratios run above the paper's: this engine charges full causal-wait time (see EXPERIMENTS.md)")
	return tb.Render()
}

// cacheHitCell renders the Table 2 cache-hit column: N/A for systems that
// never swap (or saw no cache accesses), and an explicit drop annotation
// when prefetches were abandoned because capacity was pinned by locked
// contexts — previously those drops were silent.
func cacheHitCell(res engine.Result) string {
	cell := Percent(res.CacheHitRate)
	if res.DroppedPrefetches > 0 {
		cell += fmt.Sprintf(" (%d dropped)", res.DroppedPrefetches)
	}
	return cell
}

// Table3 reproduces the reproducibility table: supernet loss and search
// accuracy across 4/8/16 GPUs under CSP, BSP, and ASP.
func Table3(ctx context.Context, o Options) string {
	o = o.withDefaults()
	gpuCounts := []int{4, 8, 16}
	spaces := table2Spaces
	if o.Quick {
		spaces = spaces[:2]
		gpuCounts = []int{4, 8}
	}
	tb := NewTable("Table 3: reproducibility (supernet loss | search accuracy | checksum)",
		append([]string{"Space", "Sync."},
			append(lossHeaders(gpuCounts), append(accHeaders(gpuCounts), "Reproducible")...)...)...)
	for _, sp := range spaces {
		for _, policy := range []string{"naspipe", "gpipe", "pipedream"} {
			row := []interface{}{sp.Name, syncName(policy)}
			losses := make([]string, 0, len(gpuCounts))
			accs := make([]string, 0, len(gpuCounts))
			var sums []uint64
			ok := true
			for _, d := range gpuCounts {
				num, err := o.numericRun(ctx, sp, policy, d)
				if err != nil {
					losses = append(losses, "-")
					accs = append(accs, "-")
					ok = false
					continue
				}
				sums = append(sums, num.Checksum)
				losses = append(losses, fmt.Sprintf("%.4f", o.probeValLoss(o.numericCfg(sp), num.Net)))
				// Search accuracy: best of a fixed candidate set evaluated
				// on the trained supernet (deterministic given weights).
				cfg := o.numericCfg(sp)
				cands := supernet.Sample(cfg.Space, o.Seed+99, 12)
				_, score := train.BestSubnetScore(cfg, num.Net, cands, 2)
				accs = append(accs, fmt.Sprintf("%.2f", score))
			}
			repro := "yes"
			if !ok {
				repro = "n/a"
			} else {
				for i := 1; i < len(sums); i++ {
					if sums[i] != sums[0] {
						repro = "NO"
					}
				}
			}
			for _, l := range losses {
				row = append(row, l)
			}
			for _, a := range accs {
				row = append(row, a)
			}
			row = append(row, repro)
			tb.AddRow(row...)
		}
	}
	tb.AddNote("Reproducible = final weights bitwise identical (FNV-64 over all parameter bits) across GPU counts")
	return tb.Render()
}

func lossHeaders(gpus []int) []string {
	out := make([]string, len(gpus))
	for i, d := range gpus {
		out[i] = fmt.Sprintf("Loss@%dGPU", d)
	}
	return out
}

func accHeaders(gpus []int) []string {
	out := make([]string, len(gpus))
	for i, d := range gpus {
		out[i] = fmt.Sprintf("Acc@%dGPU", d)
	}
	return out
}

// Table4 reproduces the access-and-update order of one shared layer under
// the three synchronization disciplines on 4 and 8 GPUs.
func Table4(ctx context.Context, o Options) string {
	o = o.withDefaults()
	sp := supernet.NLPc3
	n := 10
	// Find a layer accessed by at least three of the first n subnets.
	subs := supernet.Sample(sp, o.Seed, n)
	counts := map[supernet.LayerID][]int{}
	for _, sub := range subs {
		for _, id := range sub.LayerIDs(sp) {
			counts[id] = append(counts[id], sub.Seq)
		}
	}
	var target supernet.LayerID = -1
	bestUsers := 0
	for _, id := range sortedLayerIDs(counts) {
		users := counts[id]
		if len(users) >= 3 && len(users) > bestUsers {
			target = id
			bestUsers = len(users)
		}
	}
	if target < 0 {
		return "Table 4: no layer shared by >=3 of the first subnets (unexpected)\n"
	}
	tb := NewTable(
		fmt.Sprintf("Table 4: access & update order of supernet layer %d (sampled by subnets %v)", target, counts[target]),
		"System", "4 GPUs", "8 GPUs")
	for _, policy := range []string{"naspipe", "gpipe", "pipedream"} {
		orders := make([]string, 0, 2)
		for _, d := range []int{4, 8} {
			oo := o
			oo.Subnets = n
			res := runPerf(ctx, oo, sp, policy, d, true)
			if res.Failed {
				orders = append(orders, "(failed)")
				continue
			}
			orders = append(orders, res.Trace.LayerOrder(target))
		}
		tb.AddRow(policyLabel(policy), orders[0], orders[1])
	}
	tb.AddNote("sequential semantics: %s", trace.SequentialOrder(counts[target]))
	return tb.Render()
}

func sortedLayerIDs(m map[supernet.LayerID][]int) []supernet.LayerID {
	out := make([]supernet.LayerID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func policyLabel(policy string) string {
	switch policy {
	case "naspipe":
		return "NASPipe"
	case "gpipe":
		return "GPipe"
	case "pipedream":
		return "PipeDream"
	case "vpipe":
		return "VPipe"
	}
	return policy
}

// Table5 reproduces the per-layer computation and swap-time profile.
func Table5(ctx context.Context, o Options) string {
	spec := cluster.Default(8)
	tb := NewTable("Table 5: computation vs swap time for eight representative layers",
		"Domain", "Input Size", "Layer", "Comp. (fwd/bwd ms)", "Swap (ms)")
	for _, dom := range []layers.Domain{layers.NLP, layers.CV} {
		for _, k := range layers.Kinds(dom) {
			p := layers.Profile(k)
			tb.AddRow(dom.String(), layers.InputSize(dom), k.String(),
				fmt.Sprintf("%.2g/%.2g", p.FwdMs, p.BwdMs),
				fmt.Sprintf("%.2f", spec.SwapMs(p.ParamBytes)))
		}
	}
	tb.AddNote("swap time = parameter bytes / PCIe 3.0 x16 bandwidth (15760 MB/s), matching the measured column by construction")
	return tb.Render()
}

// joinRows is a small helper for multi-part reports.
func joinRows(parts ...string) string { return strings.Join(parts, "\n") }
