package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/rts"
)

// TestReplicaFailoverMovesEveryLeg: a two-profile replica group, two threads
// per profile, whose primary is gone. Every transfer shape fails over whole —
// the header, the argument data and the results all go to the replica — in
// well under a second and with exact contents. While only the request walked
// the profiles, a framed or multi-port leg still went to the primary's
// endpoints: the call failed, after the whole client timeout when framed.
func TestReplicaFailoverMovesEveryLeg(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	replicas := startShardGroup(t, ns, 2, 2)

	const small, framed = 64, 1 << 16
	rows := []struct {
		name   string
		method Method
		dir    Dir
		n      int
	}{
		{"in-message in", Centralized, In, small}, {"in-message inout", Centralized, InOut, small}, {"in-message out", Centralized, Out, small},
		{"framed in", Centralized, In, framed}, {"framed inout", Centralized, InOut, framed}, {"framed out", Centralized, Out, framed},
		{"multi-port in", Multiport, In, framed}, {"multi-port out", Multiport, Out, framed},
	}
	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err = w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "shardgrp", ns.Addr(), BindOptions{Timeout: 3 * time.Second})
		if err != nil {
			return err
		}
		defer b.Close()
		if c.Rank() == 0 {
			if err := replicas[0].kill(); err != nil {
				return err
			}
		}
		for _, row := range rows {
			start := time.Now()
			err := failoverCall(c, b, row.method, row.dir, row.n)
			if took := time.Since(start); err == nil && took > time.Second {
				err = fmt.Errorf("took %v", took)
			}
			if err != nil {
				t.Errorf("thread %d, %s: %v", c.Rank(), row.name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failoverCall makes one call of the shard ops with an argument of n elements
// in direction dir and checks what came back.
func failoverCall(c *rts.Comm, b *Binding, method Method, dir Dir, n int) error {
	arr, err := dseq.New(c, dseq.Float64, n, nil)
	if err != nil {
		return err
	}
	arr.FillFunc(func(g int) float64 { return float64(g + 1) })
	switch dir {
	case In:
		reply, err := b.InvokeMethod(method, "sum", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}, nil)
		if err != nil {
			return err
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		if sum, err := d.ReadDouble(); err != nil || sum != float64(n*(n+1)/2) {
			return fmt.Errorf("sum %v (%v), want %d", sum, err, n*(n+1)/2)
		}
		return nil
	case InOut:
		if _, err := b.InvokeMethod(method, "scale", scaleScalars(3), []DistArg{InOutSeq(arr)}, nil); err != nil {
			return err
		}
		return holds(arr, func(g int) float64 { return float64(g+1) * 3 })
	default:
		if err := arr.ResizeAlloc(0); err != nil {
			return err
		}
		if _, err := b.InvokeMethod(method, "iota", scaleScalars(int32(n)), []DistArg{OutSeq(arr)}, nil); err != nil {
			return err
		}
		if arr.Len() != n {
			return fmt.Errorf("out result of %d elements, want %d", arr.Len(), n)
		}
		return holds(arr, func(g int) float64 { return float64(g) + 0.5 })
	}
}
