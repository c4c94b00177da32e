package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

// slowServant answers "work" after a fixed delay, standing in for an upcall
// that holds its dispatch slot for a while.
type slowServant struct{ delay time.Duration }

func (s slowServant) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != "work" {
		return orb.BadOperation(op)
	}
	time.Sleep(s.delay)
	out.WriteULong(1)
	return nil
}

// runOverload saturates a deliberately small server (tight in-flight cap and
// queue) with concurrent clients and reports how the admission-control layer
// behaved: completed requests, requests shed with TRANSIENT, and other
// failures. A healthy run sheds under load and fails nothing.
func runOverload(clients, reqs int) {
	const (
		maxInFlight = 4
		queueDepth  = 4
		delay       = 5 * time.Millisecond
	)
	srv, err := orb.NewServerOpts("127.0.0.1:0", orb.ServerOptions{
		MaxInFlight: maxInFlight,
		QueueDepth:  queueDepth,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	key := []byte("overload")
	srv.Register(key, slowServant{delay: delay})
	addr := srv.Addr()

	fmt.Printf("overload: %d clients x %d requests against MaxInFlight=%d QueueDepth=%d (servant %v/call)\n",
		clients, reqs, maxInFlight, queueDepth, delay)

	var ok, shed, failed atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := orb.NewClient()
			defer cli.Close()
			for j := 0; j < reqs; j++ {
				_, err := cli.InvokeAddr(nil, addr, key, "work", orb.NewArgEncoder().Bytes(), false)
				switch {
				case err == nil:
					ok.Add(1)
				case orb.IsTransient(err):
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	fmt.Printf("  completed %d, shed %d, failed %d in %v\n", ok.Load(), shed.Load(), failed.Load(), elapsed)
	fmt.Printf("  server: dispatched %d, shed %d (in flight now %d, queued now %d)\n",
		st.Dispatched, st.Shed, st.InFlight, st.Queued)
}

// echoServant answers "who" with its own tag, so the failover run can tell
// which replica served each request.
type echoServant struct{ tag string }

func (s echoServant) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != "who" {
		return orb.BadOperation(op)
	}
	out.WriteString(s.tag)
	return nil
}

func startReplica(addr, tag string, key []byte) (*orb.Server, error) {
	srv, err := orb.NewServer(addr)
	if err != nil {
		return nil, err
	}
	srv.Register(key, echoServant{tag: tag})
	return srv, nil
}

// runFailover demonstrates multi-profile endpoint failover: two replicas
// register under one name (the name server merges their profiles), a client
// resolves the merged reference and invokes through a per-endpoint circuit
// breaker. Mid-run the primary replica is torn down — the circuit opens and
// traffic fails over to the secondary. The primary then comes back, and the
// breaker's half-open probe recovers it.
func runFailover(reqs int) {
	key := []byte("spmd/IDL:bench:1.0/echo")
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()

	primary, err := startReplica("127.0.0.1:0", "primary", key)
	if err != nil {
		log.Fatal(err)
	}
	secondary, err := startReplica("127.0.0.1:0", "secondary", key)
	if err != nil {
		log.Fatal(err)
	}
	defer secondary.Close()
	primaryAddr := primary.Addr()

	mkRef := func(s *orb.Server) orb.IOR {
		return orb.IOR{TypeID: "IDL:bench:1.0", Key: key, Threads: 1,
			Endpoints: []orb.Endpoint{s.Endpoint(0)}}
	}
	cli := orb.NewClient()
	defer cli.Close()
	cli.Breaker = orb.BreakerPolicy{Threshold: 1, Cooldown: 50 * time.Millisecond}
	res := naming.NewResolver(cli, ns.Addr())
	if err := res.BindReplica("echo", mkRef(primary)); err != nil {
		log.Fatal(err)
	}
	if err := res.BindReplica("echo", mkRef(secondary)); err != nil {
		log.Fatal(err)
	}
	ref, err := res.Resolve("echo", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failover: %d requests over %d merged profiles (breaker threshold 1, cooldown 50ms)\n",
		reqs, 1+len(ref.Alternates))

	var byTag = map[string]int{}
	var failed, retried int
	invoke := func() {
		out, err := cli.Invoke(ref, "who", orb.NewArgEncoder().Bytes(), false)
		if err != nil {
			failed++
			return
		}
		d, _ := orb.ArgDecoder(out)
		tag, _ := d.ReadString()
		byTag[tag]++
	}

	third := reqs / 3
	for i := 0; i < third; i++ {
		invoke()
	}
	fmt.Printf("  phase 1 (both up):        primary %d, secondary %d, failed %d\n",
		byTag["primary"], byTag["secondary"], failed)

	primary.Close() // replica crash: the circuit opens, traffic fails over
	mark := byTag["secondary"]
	for i := 0; i < third; i++ {
		invoke()
	}
	retried = byTag["secondary"] - mark
	fmt.Printf("  phase 2 (primary down):   failed over %d, failed %d\n", retried, failed)

	restarted, err := startReplica(primaryAddr, "primary", key)
	if err != nil {
		log.Fatal(err)
	}
	defer restarted.Close()
	time.Sleep(60 * time.Millisecond) // let the breaker cooldown lapse
	mark = byTag["primary"]
	for i := 0; i < reqs-2*third; i++ {
		invoke()
	}
	fmt.Printf("  phase 3 (primary back):   primary recovered %d, secondary %d, failed %d\n",
		byTag["primary"]-mark, byTag["secondary"], failed)
	fmt.Printf("  totals: primary %d, secondary %d, failed %d\n",
		byTag["primary"], byTag["secondary"], failed)
}
