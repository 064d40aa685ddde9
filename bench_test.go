// Benchmarks that regenerate every artifact of the paper's evaluation at a
// reduced scale (exp.BenchEnv: 50 servers, rates and durations scaled so the
// whole suite completes in minutes). Each benchmark prints the regenerated
// rows once (-v) via b.Log of the summary line; full tables come from
// cmd/terradir-exp. Run the paper-scale versions with:
//
//	go run ./cmd/terradir-exp -scale 1 -out results/
package terradir_test

import (
	"strings"
	"testing"

	"terradir"
	"terradir/internal/exp"
)

func benchDriver(b *testing.B, id string) {
	b.Helper()
	env := exp.BenchEnv()
	for i := 0; i < b.N; i++ {
		r, err := terradir.RunExperiment(id, env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		if i == 0 {
			var sb strings.Builder
			if err := r.WriteTSV(&sb); err != nil {
				b.Fatal(err)
			}
			lines := strings.SplitN(sb.String(), "\n", 4)
			b.Logf("%s: %d rows; %s", id, len(r.Rows), strings.Join(lines[:min(3, len(lines))], " | "))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkTable1StateMatrix regenerates paper Table 1.
func BenchmarkTable1StateMatrix(b *testing.B) { benchDriver(b, "table1") }

// BenchmarkFig3Drops regenerates paper Fig. 3 (dropped queries over time,
// Ns, five streams).
func BenchmarkFig3Drops(b *testing.B) { benchDriver(b, "fig3") }

// BenchmarkFig4Replicas regenerates paper Fig. 4 (replicas created over
// time, Nc).
func BenchmarkFig4Replicas(b *testing.B) { benchDriver(b, "fig4") }

// BenchmarkFig5Ablation regenerates paper Fig. 5 (B vs BC vs BCR drop
// fractions across ten streams).
func BenchmarkFig5Ablation(b *testing.B) { benchDriver(b, "fig5") }

// BenchmarkFig6Load regenerates paper Fig. 6 (average/maximum server load
// over time at three arrival rates).
func BenchmarkFig6Load(b *testing.B) { benchDriver(b, "fig6") }

// BenchmarkFig7Levels regenerates paper Fig. 7 (average replicas created per
// namespace level).
func BenchmarkFig7Levels(b *testing.B) { benchDriver(b, "fig7") }

// BenchmarkFig8Stabilization regenerates paper Fig. 8 (replicas created per
// minute over long runs).
func BenchmarkFig8Stabilization(b *testing.B) { benchDriver(b, "fig8") }

// BenchmarkFig9Scalability regenerates paper Fig. 9 (latency, replications,
// drops vs system size).
func BenchmarkFig9Scalability(b *testing.B) { benchDriver(b, "fig9") }

// BenchmarkExp10DigestAccuracy regenerates the §4.4 digest-vs-oracle
// accuracy sweep.
func BenchmarkExp10DigestAccuracy(b *testing.B) { benchDriver(b, "e10") }

// BenchmarkExp11ControlOverhead regenerates the §4.2 control-overhead
// measurement.
func BenchmarkExp11ControlOverhead(b *testing.B) { benchDriver(b, "e11") }

// BenchmarkAblationPathCaching regenerates the §2.4 path-propagation
// ablation.
func BenchmarkAblationPathCaching(b *testing.B) { benchDriver(b, "a1") }

// BenchmarkAblationDigests regenerates the §3.6 digest ablation.
func BenchmarkAblationDigests(b *testing.B) { benchDriver(b, "a2") }

// BenchmarkSimulatorThroughput measures raw simulator event throughput on a
// steady mid-utilization deployment (events/sec is the inverse of ns/op
// scaled by the event count, reported via custom metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	tree := terradir.NewBalancedNamespace(2, 11)
	for i := 0; i < b.N; i++ {
		p := terradir.DefaultSimParams(tree, 64)
		p.Seed = uint64(i) + 1
		sim, err := terradir.NewSimulation(p)
		if err != nil {
			b.Fatal(err)
		}
		w := terradir.UniformWorkload(tree, 7, 800, 20)
		sim.Run(w, 20)
		sim.Drain(5)
		b.ReportMetric(float64(sim.Engine().Processed()), "events/op")
	}
}

// BenchmarkLiveOverlayLookup measures end-to-end lookup latency through the
// live goroutine overlay (in-process transport).
func BenchmarkLiveOverlayLookup(b *testing.B) {
	tree := terradir.NewBalancedNamespace(2, 10)
	ov, err := terradir.NewLocalOverlay(tree, terradir.OverlayOptions{Servers: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer ov.StopAll()
	ctx := b.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ov.Lookup(ctx, i%16, terradir.NodeID(i%tree.Len()))
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("lookup failed: %+v", res)
		}
	}
}
