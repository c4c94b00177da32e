// Monitor: the paper's §2.1 closing scenario — "more complex interactions
// composed of multiple parallel applications, as well as units visualizing
// or otherwise monitoring their progress".
//
// An SPMD solver object runs a long iterative computation. Instead of
// serving requests between jobs only, its computing threads interrupt the
// computation every few iterations to process outstanding requests
// (core.Object.Poll — "PARDIS also allows the server to interrupt its
// computation in order to process outstanding requests"). A separate
// monitoring client polls the solver's progress and residual while it runs.
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/rts"
)

// solverState is the per-thread state of the long-running computation.
type solverState struct {
	mu        sync.Mutex
	iteration int
	residual  float64
}

func main() {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()

	const threads = 3
	const totalIters = 400
	state := &solverState{residual: 1}

	progressDesc := core.OpDesc{Name: "progress"}
	sampleDesc := core.OpDesc{Name: "sample", Args: []core.ArgDesc{{Name: "field", Dir: core.Out, Elem: "double"}}}
	shutdownDesc := core.OpDesc{Name: "shutdown"}

	world := rts.NewWorld(threads)
	defer world.Close()
	done := make(chan error, 1)
	ready := make(chan struct{})
	var once sync.Once
	go func() {
		done <- world.Run(func(c *rts.Comm) error {
			obj, err := core.Export(c, core.ExportOptions{
				TypeID:     "IDL:monitor/solver:1.0",
				Multiport:  true,
				Name:       "solver",
				NameServer: ns.Addr(),
			}, []core.Operation{
				{
					Desc:    progressDesc,
					NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
					Handler: func(call *core.ServerCall) error {
						state.mu.Lock()
						call.Out.WriteLong(int32(state.iteration))
						call.Out.WriteDouble(state.residual)
						state.mu.Unlock()
						return nil
					},
				},
				{
					Desc:    sampleDesc,
					NewArgs: core.SeqArgsFloat64(sampleDesc.Args),
					Handler: func(call *core.ServerCall) error {
						// Return a snapshot of the (synthetic) field.
						field := core.ArgSeq[float64](call, 0)
						if err := field.ResizeAlloc(64); err != nil {
							return err
						}
						state.mu.Lock()
						it := state.iteration
						state.mu.Unlock()
						field.FillFunc(func(g int) float64 {
							return math.Sin(float64(g)/8 + float64(it)/50)
						})
						return nil
					},
				},
				{
					Desc:    shutdownDesc,
					NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
					Handler: func(call *core.ServerCall) error { return core.ErrStopServing },
				},
			})
			if err != nil {
				once.Do(func() { close(ready) })
				return err
			}
			if c.Rank() == 0 {
				once.Do(func() { close(ready) })
			}
			defer obj.Close()

			// The long computation, interrupted for request processing.
			for iter := 0; iter < totalIters; iter++ {
				// A slice of "solver work".
				time.Sleep(500 * time.Microsecond)
				if c.Rank() == 0 {
					state.mu.Lock()
					state.iteration = iter + 1
					state.residual = math.Exp(-float64(iter) / 60)
					state.mu.Unlock()
				}
				// Every few iterations, collectively poll for requests.
				if iter%5 == 4 {
					cont, err := obj.Poll(false)
					if err != nil {
						return err
					}
					if !cont {
						return nil
					}
				}
			}
			// Computation finished; keep serving until the monitor is done.
			return obj.Serve()
		})
	}()
	<-ready

	// The monitoring unit: a plain (non-collective) client watching the
	// solver's progress while it runs.
	mon, err := core.Bind("solver", ns.Addr(), core.BindOptions{Timeout: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	for {
		reply, err := mon.Invoke("progress", core.ScalarEncoder().Bytes(), nil)
		if err != nil {
			log.Fatal(err)
		}
		dec, _ := core.ScalarDecoder(reply)
		iter, _ := dec.ReadLong()
		residual, _ := dec.ReadDouble()
		fmt.Printf("monitor: iteration %3d/%d residual %.4f\n", iter, totalIters, residual)
		if int(iter) >= totalIters {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Pull a field snapshot (an Out distributed argument).
	field, err := dseq.New(mon.Comm(), dseq.Float64, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mon.Invoke("sample", core.ScalarEncoder().Bytes(), []core.DistArg{core.OutSeq(field)}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitor: sampled %d field values, field[0]=%.3f\n", field.Len(), field.LocalData()[0])

	// Ask the solver to stop serving (its handler returns ErrStopServing,
	// which shuts the Serve loop down collectively on every thread).
	if _, err := mon.Invoke("shutdown", core.ScalarEncoder().Bytes(), nil); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("monitor example complete")
}
