package exp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
)

// The tests below assert the paper's qualitative findings on the simulated
// platform — the "shape criteria" of DESIGN.md. Absolute values are pinned
// only loosely (they are calibration, not physics).

func TestTable1CentralizedShape(t *testing.T) {
	rows, err := Table1(PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table1ClientCounts)*len(Table1ServerCounts) {
		t.Fatalf("%d rows", len(rows))
	}
	byCfg := map[[2]int]Breakdown{}
	for _, r := range rows {
		byCfg[[2]int{r.C, r.S}] = r.B
	}
	// Totals grow with client threads at fixed s.
	for _, s := range Table1ServerCounts {
		for i := 1; i < len(Table1ClientCounts); i++ {
			lo := byCfg[[2]int{Table1ClientCounts[i-1], s}].Total
			hi := byCfg[[2]int{Table1ClientCounts[i], s}].Total
			if hi <= lo {
				t.Errorf("s=%d: total did not grow from c=%d (%.1fms) to c=%d (%.1fms)",
					s, Table1ClientCounts[i-1], lo*1e3, Table1ClientCounts[i], hi*1e3)
			}
		}
	}
	// Totals grow with server threads at fixed c.
	for _, c := range Table1ClientCounts {
		if byCfg[[2]int{c, 8}].Total <= byCfg[[2]int{c, 4}].Total {
			t.Errorf("c=%d: total did not grow from s=4 to s=8", c)
		}
	}
	// Gather grows with c and vanishes at c=1; scatter grows with s.
	for _, s := range Table1ServerCounts {
		if g := byCfg[[2]int{1, s}].Gather; g != 0 {
			t.Errorf("gather at c=1 is %.2fms, want 0", g*1e3)
		}
		if byCfg[[2]int{8, s}].Gather <= byCfg[[2]int{2, s}].Gather {
			t.Errorf("s=%d: gather did not grow with c", s)
		}
	}
	if byCfg[[2]int{4, 8}].Scatter <= byCfg[[2]int{4, 4}].Scatter {
		t.Error("scatter did not grow with s")
	}
	// The absolute scale matches the paper's band (417–461 ms at s=4,
	// 571–697 ms at s=8) within a generous tolerance.
	if tot := byCfg[[2]int{1, 4}].Total; tot < 0.35 || tot > 0.52 {
		t.Errorf("c=1,s=4 total %.1fms outside the paper's neighbourhood", tot*1e3)
	}
	if tot := byCfg[[2]int{8, 8}].Total; tot < 0.55 || tot > 0.80 {
		t.Errorf("c=8,s=8 total %.1fms outside the paper's neighbourhood", tot*1e3)
	}
	// Gather and scatter live in the paper's 0.2–30 ms band.
	for cfg, b := range byCfg {
		if b.Gather > 0.035 || b.Scatter > 0.035 {
			t.Errorf("cfg %v: gather %.1fms scatter %.1fms out of band", cfg, b.Gather*1e3, b.Scatter*1e3)
		}
	}
}

func TestTable2MultiportShape(t *testing.T) {
	rows, err := Table2(PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	byCfg := map[[2]int]Breakdown{}
	for _, r := range rows {
		byCfg[[2]int{r.C, r.S}] = r.B
	}
	// §3.3: "the time of argument transfer decreases with the increase of
	// computational resources of client and server": the best
	// configuration beats the worst decisively, and adding server threads
	// helps at every c ≥ 2.
	if byCfg[[2]int{4, 4}].Total >= byCfg[[2]int{1, 1}].Total {
		t.Error("multi-port total did not decrease from (1,1) to (4,4)")
	}
	for _, c := range []int{2, 4, 8} {
		if byCfg[[2]int{c, 4}].Total >= byCfg[[2]int{c, 1}].Total {
			t.Errorf("c=%d: total did not decrease from s=1 to s=4", c)
		}
	}
	// Per-thread pack time decreases as c grows (work splits).
	for _, s := range Table2ServerCounts {
		if byCfg[[2]int{8, s}].Pack >= byCfg[[2]int{1, s}].Pack {
			t.Errorf("s=%d: pack did not shrink with more client threads", s)
		}
	}
	// The §3.3 barrier diagnosis: with one server thread concurrent sends
	// sequentialize, so the exit barrier wait blows up with c; with s=4 the
	// barrier at the same c is far smaller.
	if byCfg[[2]int{4, 1}].Barrier < 0.050 {
		t.Errorf("s=1,c=4 barrier %.1fms too small to indicate sequentialized sends",
			byCfg[[2]int{4, 1}].Barrier*1e3)
	}
	if byCfg[[2]int{1, 1}].Barrier > 0.005 {
		t.Errorf("s=1,c=1 barrier %.1fms, want ≈0", byCfg[[2]int{1, 1}].Barrier*1e3)
	}
	if byCfg[[2]int{4, 4}].Barrier >= byCfg[[2]int{4, 1}].Barrier/2 {
		t.Error("barrier did not collapse when server threads receive concurrently")
	}
}

func TestMultiportNeverLoses(t *testing.T) {
	// "we have not found a case in which it would underperform the
	// centralized method" — checked across the configurations the paper
	// measured the centralized method on (s ≥ 2; Table 1 uses s ∈ {4,8}).
	// With a single server thread and many clients the sequentialized
	// multi-port receive can fall behind the centralized pipeline — a
	// configuration outside the paper's comparison grid.
	p := PaperPlatform()
	for _, s := range []int{2, 4, 8} {
		for _, c := range []int{1, 2, 4, 8} {
			bc, err := SimulateCentralized(p, c, s, PaperElems)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := SimulateMultiport(p, c, s, PaperElems)
			if err != nil {
				t.Fatal(err)
			}
			if bm.Total > bc.Total*1.05 {
				t.Errorf("c=%d s=%d: multi-port %.1fms loses to centralized %.1fms",
					c, s, bm.Total*1e3, bc.Total*1e3)
			}
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	pts, err := Figure4(PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("%d points", len(pts))
	}
	// Small sizes: the two methods are nearly identical (within 2x).
	small := pts[0]
	ratio := small.MultiBW() / small.CentralBW()
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("at 10 doubles methods differ by %.1fx", ratio)
	}
	// Large sizes: multi-port wins by roughly the paper's factor (26.7 vs
	// 12.27 ≈ 2.2×; accept 1.8–4×).
	big := pts[len(pts)-1]
	ratio = big.MultiBW() / big.CentralBW()
	if ratio < 1.8 || ratio > 4.5 {
		t.Errorf("at 10^7 doubles multi-port advantage %.2fx outside 1.8–4.5x", ratio)
	}
	// Peak magnitudes land near the paper's: multi-port 26.7 MB/s,
	// centralized 12.27 MB/s (±40%).
	var peakM, peakC float64
	for _, p := range pts {
		peakM = max(peakM, p.MultiBW())
		peakC = max(peakC, p.CentralBW())
	}
	if peakM < 16e6 || peakM > 37e6 {
		t.Errorf("multi-port peak %.1f MB/s outside the paper's neighbourhood", peakM/1e6)
	}
	if peakC < 7e6 || peakC > 17e6 {
		t.Errorf("centralized peak %.1f MB/s outside the paper's neighbourhood", peakC/1e6)
	}
	// Bandwidth is monotone non-decreasing for multi-port over the sweep.
	for i := 1; i < len(pts); i++ {
		if pts[i].MultiBW() < pts[i-1].MultiBW()*0.95 {
			t.Errorf("multi-port bandwidth regressed at %d doubles", pts[i].Elems)
		}
	}
}

func TestUnevenSplitComparable(t *testing.T) {
	// §3.3: "cases when the sequence is split unevenly are of comparable
	// efficiency".
	even, uneven, err := UnevenSplit(PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	ratio := uneven.Total / even.Total
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("uneven split %.1fms vs even %.1fms (ratio %.2f) not comparable",
			uneven.Total*1e3, even.Total*1e3, ratio)
	}
}

func TestSimulationDeterministic(t *testing.T) {
	p := PaperPlatform()
	a, err := SimulateMultiport(p, 4, 4, PaperElems)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateMultiport(p, 4, 4, PaperElems)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestSimulateInvalidConfigs(t *testing.T) {
	p := PaperPlatform()
	if _, err := SimulateCentralized(p, 0, 1, 10); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := SimulateMultiport(p, 1, 0, 10); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := SimulateCentralized(p, 1, 1, -1); err == nil {
		t.Error("negative length accepted")
	}
	// Zero-length transfers still complete (pure header exchange).
	b, err := SimulateMultiport(p, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Error("zero-length invocation has no cost")
	}
	// A platform the schedule cannot be cut on, or whose senders have no
	// window, is refused before a process is spawned. Each row runs under a
	// guard: a chunk of 0 or −8 bytes used to spin for ever growing a slice,
	// 4 and 12 moved fractions of a double, and a window below 1 ended as a
	// netsim deadlock with the simulated threads' goroutines left behind.
	testutil.CheckGoroutines(t, "platform", func(t *testing.T) {
		for _, bad := range []struct{ chunkBytes, window int }{
			{0, p.Window}, {-8, p.Window}, {4, p.Window}, {12, p.Window}, {p.ChunkBytes, 0}, {p.ChunkBytes, -1},
		} {
			for name, sim := range map[string]func(Platform, int, int, int) (Breakdown, error){
				"centralized": SimulateCentralized, "multi-port": SimulateMultiport,
			} {
				q := p
				q.ChunkBytes, q.Window = bad.chunkBytes, bad.window
				done := make(chan error, 1)
				go func() {
					_, err := sim(q, 2, 2, 1<<16)
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil || !strings.HasPrefix(err.Error(), "exp: invalid platform") {
						t.Errorf("%s, ChunkBytes %d, Window %d: %v, want exp: invalid platform …", name, bad.chunkBytes, bad.window, err)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("%s, ChunkBytes %d, Window %d: no answer after 2 s", name, bad.chunkBytes, bad.window)
				}
			}
		}
	})
}

func TestFormatters(t *testing.T) {
	p := PaperPlatform()
	rows1, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable1(rows1)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "gather") {
		t.Errorf("table 1 rendering:\n%s", out)
	}
	rows2, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	out = FormatTable2(rows2)
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "barrier") {
		t.Errorf("table 2 rendering:\n%s", out)
	}
	pts, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	out = FormatFigure4(pts, Figure4Client, Figure4Server)
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "MB/s") {
		t.Errorf("figure rendering:\n%s", out)
	}
}

func TestRunRealSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-stack measurement in -short mode")
	}
	central, multi, err := RunRealComparison(2, 2, 1<<14, 2)
	if err != nil {
		t.Fatal(err)
	}
	if central.Total <= 0 || multi.Total <= 0 {
		t.Fatalf("timings not populated: %+v %+v", central, multi)
	}
}

func TestRunRealBothMethodsCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("real-stack measurement in -short mode")
	}
	for _, m := range []core.Method{core.Centralized, core.Multiport} {
		if _, err := RunReal(RealConfig{C: 3, S: 2, Elems: 1 << 10, Reps: 1, Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}
