package exp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// TestInterpreterWalksTheEnginesSchedule ties the two executors of the
// protocol: for one leg, the steps dist.Schedule cuts are what the simulated
// platform is charged for, and what the real engine puts on the wire.
func TestInterpreterWalksTheEnginesSchedule(t *testing.T) {
	p := PaperPlatform()
	if p.ChunkBytes != elemBytes*core.DefaultStreamChunkElems {
		t.Fatalf("the platform cuts chunks of %d bytes, the engine of %d elements of %d", p.ChunkBytes, core.DefaultStreamChunkElems, elemBytes)
	}
	for _, row := range []struct {
		name        string
		method      core.Method
		c, s, elems int
		steps       int // pinned beside the walk: TestDirectLegFrames' number
		real        bool
	}{
		{"multiport c=2 s=2 2^19", core.Multiport, 2, 2, 1 << 19, 64, true},
		{"multiport c=3 s=2 100000", core.Multiport, 3, 2, 100_000, 16, false},
		{"centralized c=2 s=2 2^19", core.Centralized, 2, 2, 1 << 19, 64, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			plan := []dist.Move{{Len: row.elems}}
			sim := SimulateCentralizedProbe
			if row.method == core.Multiport {
				src, err := dist.Block{}.Layout(row.elems, row.c)
				if err != nil {
					t.Fatal(err)
				}
				dst, err := dist.Block{}.Layout(row.elems, row.s)
				if err != nil {
					t.Fatal(err)
				}
				if plan, err = dist.Plan(src, dst); err != nil {
					t.Fatal(err)
				}
				sim = SimulateMultiportProbe
			}
			steps, total, perSrc := 0, 0, make([]int, row.c)
			sc := dist.Schedule{Moves: plan, CE: core.DefaultStreamChunkElems}
			for st, ok := sc.Next(); ok; st, ok = sc.Next() {
				steps++
				total += st.N
				perSrc[st.Src]++
			}
			if steps != row.steps || total != row.elems {
				t.Fatalf("the schedule cuts %d steps over %d elements, want %d over %d", steps, total, row.steps, row.elems)
			}

			reg := obs.NewRegistry()
			if _, err := sim(p, row.c, row.s, row.elems, &Probe{Reg: reg}); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if chunks, bytes := snap.Counters["exp.sim.chunks"], snap.Counters["exp.sim.bytes"]; chunks != uint64(steps) || bytes != uint64(total*elemBytes) {
				t.Fatalf("the platform was charged %d chunks of %d bytes in all, the schedule has %d steps of %d", chunks, bytes, steps, total*elemBytes)
			}

			if !row.real {
				return
			}
			// Two invocations, RunReal's warm-up and its one rep. A chunk-send
			// span is recorded by the thread a step names as its source (the
			// other threads of a centralized leg record their share of the
			// collective gather under the same phase, so only sources count).
			rec := obs.NewRecorder(4096)
			if _, err := RunReal(RealConfig{C: row.c, S: row.s, Elems: row.elems, Reps: 1, Method: row.method, Trace: rec}); err != nil {
				t.Fatal(err)
			}
			sent := make([]int, row.c)
			for _, sp := range rec.Spans() {
				if sp.Phase == obs.PhaseChunkSend {
					sent[sp.Rank]++
				}
			}
			for src, n := range perSrc {
				if n != 0 && sent[src] != 2*n {
					t.Errorf("client thread %d recorded %d chunk-send spans over 2 invocations, its schedule has %d steps each", src, sent[src], n)
				}
			}
		})
	}
}
