package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
)

// This file implements elastic membership for exported SPMD objects: a
// running object can change its computing-thread count without restarting
// the process or losing its distributed state. An rts world is fixed-size by
// construction, so elasticity is realized as a succession of worlds — one
// per membership epoch — with the live dsequence state repartitioned between
// them along a minimal-move plan (dist.Diff of the old and new layouts).
//
// The resize protocol has five phases, each a distinct fault-injection point
// for the membership-chaos harness:
//
//	quiesce  — new arrivals are shed with TRANSIENT; queued calls drain
//	           through the collective loop ahead of the resize ticket.
//	snapshot — inside the collective loop (so no invocation is in flight)
//	           every old thread marshals the ranges it owns that move,
//	           per the diff plan, into the transfer buffer.
//	spawn    — the successor world launches, rebuilds the state sequences
//	           at the new size, and applies the transfer chunks.
//	publish  — the new epoch's reference replaces the old one in the naming
//	           domain. This is the commit point: failures before it roll
//	           back to the old epoch (commit=false resumes serving);
//	           failures after it are forced to completion.
//	retire   — the old epoch's serve loops exit, stranded queue entries are
//	           refused re-resolvably, listeners close, the world closes.
//
// Clients bound through naming.Rebinder observe at most one retried
// invocation: a stale request is refused before any data transfer — wrong
// epoch (OBJECT_NOT_EXIST), draining (TRANSIENT) or dead endpoint
// (ErrConnBroken) — never answered with a wrong-shape scatter.

// resizeOp is the reserved admin operation exposed (when
// orb.ServerOptions.AdminResize is set on an elastic export) to trigger a
// membership change remotely: one Long argument, the target thread count;
// the reply is the epoch current at acceptance.
const resizeOp = "_pardis_resize"

// ResizePhase identifies one phase of the resize protocol, primarily for
// fault injection by the membership-chaos harness.
type ResizePhase int

const (
	// ResizeQuiesce sheds new arrivals on the old epoch.
	ResizeQuiesce ResizePhase = iota
	// ResizeSnapshot marshals moving state ranges inside the collective loop.
	ResizeSnapshot
	// ResizeSpawn launches the successor world and applies the transfer.
	ResizeSpawn
	// ResizePublish replaces the name binding — the commit point.
	ResizePublish
	// ResizeRetire tears the old epoch down (post-commit; faults here are
	// forced to completion).
	ResizeRetire
	numResizePhases
)

// NumResizePhases is the number of fault-injectable resize phases.
const NumResizePhases = int(numResizePhases)

var resizePhaseNames = [numResizePhases]string{
	"quiesce", "snapshot", "spawn", "publish", "retire",
}

func (p ResizePhase) String() string {
	if p < 0 || p >= numResizePhases {
		return fmt.Sprintf("ResizePhase(%d)", int(p))
	}
	return resizePhaseNames[p]
}

// StateDesc declares one live distributed sequence an elastic object carries
// across resizes.
type StateDesc struct {
	// Name keys the sequence in EpochState.
	Name string
	// Length is the initial global length.
	Length int
	// Spec is the distribution law (nil for Block). It must be meaningful at
	// any thread count — Block and Cyclic are; a Proportions pinned to one
	// size will fail the first resize.
	Spec dist.Spec
	// New builds the sequence at the given length on a fresh epoch's
	// communicator. Contents need not be initialized: the elastic engine
	// overwrites them from the previous epoch (or calls Seed on the first).
	New func(comm *rts.Comm, length int, spec dist.Spec) (dseq.Transferable, error)
	// Seed populates the sequence on the first epoch only; nil leaves zeros.
	Seed func(st dseq.Transferable, comm *rts.Comm) error
}

func (sd StateDesc) build(c *rts.Comm, length int) (dseq.Transferable, error) {
	if sd.New == nil {
		return nil, fmt.Errorf("core: state %q has no factory", sd.Name)
	}
	return sd.New(c, length, sd.Spec)
}

// Float64State is the common-case StateDesc: a Block-distributed double
// sequence seeded from a function of the global index.
func Float64State(name string, length int, seed func(global int) float64) StateDesc {
	return StateDesc{
		Name:   name,
		Length: length,
		New: func(c *rts.Comm, length int, spec dist.Spec) (dseq.Transferable, error) {
			if spec == nil {
				spec = dist.Block{}
			}
			return dseq.New(c, dseq.Float64, length, spec)
		},
		Seed: func(st dseq.Transferable, _ *rts.Comm) error {
			s, ok := st.(*dseq.Seq[float64])
			if !ok {
				return fmt.Errorf("core: state %q is not a float64 sequence", name)
			}
			if seed != nil {
				s.FillFunc(seed)
			}
			return nil
		},
	}
}

// EpochState is one epoch's view of the live state, handed to the Ops
// factory so handlers close over the current epoch's sequences.
type EpochState struct {
	// Comm is the epoch's engine communicator (this thread's rank).
	Comm *rts.Comm
	// Epoch is the membership epoch (1 on first launch).
	Epoch int
	seqs  map[string]dseq.Transferable
}

// Seq returns the named state sequence, or nil if undeclared.
func (es *EpochState) Seq(name string) dseq.Transferable { return es.seqs[name] }

// ElasticOptions configure NewElastic.
type ElasticOptions struct {
	// Export configures each epoch's underlying Export. Name and NameServer
	// are required: re-resolution through the naming domain is how clients
	// follow the object across epochs. Epoch is owned by the engine.
	Export ExportOptions
	// World configures each epoch's rts world (mailbox depths, timeouts).
	// Epoch is owned by the engine.
	World rts.Options
	// State declares the live sequences carried across resizes.
	State []StateDesc
	// Ops builds the epoch's operation table over its state view. Called
	// once per epoch on every computing thread.
	Ops func(es *EpochState) []Operation
	// Metrics, when set, receives the core.resize.* instruments.
	Metrics *obs.Registry
	// FaultHook, when set, is consulted at every resize phase (on the
	// controller for quiesce/spawn/publish/retire; on every computing
	// thread for snapshot — it must be goroutine-safe and deterministic in
	// (phase, epoch) so the threads agree). A non-nil return aborts the
	// resize at that phase; post-commit (retire) faults are recorded and
	// forced to completion. Test instrumentation.
	FaultHook func(phase ResizePhase, epoch int) error
}

// Elastic is the controller of one elastic SPMD object: it owns the current
// epoch's world and serve goroutines and serializes resizes against it.
type Elastic struct {
	opts ElasticOptions
	rec  *obs.Recorder

	// resizeMu serializes Resize/Close; mu guards the snapshot fields below
	// for cheap accessors.
	resizeMu sync.Mutex
	mu       sync.Mutex
	cur      *epochRun
	pending  *pendingResize
	closed   bool

	insTotal, insAborted, insLate *obs.Counter
	insMovedElems, insMovedChunks *obs.Counter
	insEpoch, insRanks            *obs.Gauge
	insDur                        *obs.Histogram
}

// epochRun is one epoch's live incarnation.
type epochRun struct {
	epoch   int
	size    int
	lengths []int // per-state global lengths at launch
	world   *rts.World
	objs    []*Object
	errc    chan error // World.Run's result (one send)
}

// pendingResize is the in-flight resize visible to the snapshot hooks.
type pendingResize struct {
	epoch int
	size  int
	xfer  *stateXfer
}

// stateXfer accumulates the marshalled state ranges moving between epochs.
// Old threads append concurrently under mu; the new epoch's threads read
// their buckets after launch (ordered by the snapshot-completion channel and
// goroutine creation, so no lock is needed on the read side).
type stateXfer struct {
	mu         sync.Mutex
	lengths    []int         // per-state global length, recorded by thread 0
	chunks     [][]xferChunk // per destination (new-epoch) rank
	crossElems int           // elements that crossed ranks
	chunkCount int
}

type xferChunk struct {
	state   int
	step    dist.Step
	payload []byte
}

func newStateXfer(states, dstRanks int) *stateXfer {
	return &stateXfer{lengths: make([]int, states), chunks: make([][]xferChunk, dstRanks)}
}

func (x *stateXfer) add(state int, step dist.Step, payload []byte) {
	x.mu.Lock()
	x.chunks[step.Dst] = append(x.chunks[step.Dst], xferChunk{state: state, step: step, payload: payload})
	x.chunkCount++
	if step.Src != step.Dst {
		x.crossElems += step.N
	}
	x.mu.Unlock()
}

func (x *stateXfer) setLength(state, length int) {
	x.mu.Lock()
	x.lengths[state] = length
	x.mu.Unlock()
}

// ErrNotElastic reports a Resize on a conventionally exported object.
var ErrNotElastic = errors.New("core: object is not an elastic export")

// Resize delegates to the elastic engine owning this object.
func (o *Object) Resize(n int) error {
	if o.elastic == nil {
		return ErrNotElastic
	}
	return o.elastic.Resize(n)
}

// NewElastic exports an elastic SPMD object at the given initial thread
// count (epoch 1) and registers it in the naming domain. The caller drives
// membership through Resize and must Close the engine when done.
func NewElastic(opts ElasticOptions, size int) (*Elastic, error) {
	if size < 1 {
		return nil, fmt.Errorf("core: elastic export with %d threads", size)
	}
	if opts.Export.Name == "" || opts.Export.NameServer == "" {
		return nil, errors.New("core: elastic export requires Name and NameServer")
	}
	if opts.Ops == nil {
		return nil, errors.New("core: elastic export requires an Ops factory")
	}
	el := &Elastic{opts: opts, rec: opts.Export.Trace}
	if m := opts.Metrics; m != nil {
		el.insTotal = m.Counter("core.resize.total")
		el.insAborted = m.Counter("core.resize.aborted")
		el.insLate = m.Counter("core.resize.late_faults")
		el.insMovedElems = m.Counter("core.resize.moved_elems")
		el.insMovedChunks = m.Counter("core.resize.moved_chunks")
		el.insEpoch = m.Gauge("core.resize.epoch")
		el.insRanks = m.Gauge("core.resize.ranks")
		el.insDur = m.Histogram("core.resize.duration_ns")
	}
	lengths := make([]int, len(opts.State))
	for i, sd := range opts.State {
		lengths[i] = sd.Length
	}
	run, err := el.launch(nil, 1, size, lengths, nil)
	if err != nil {
		return nil, err
	}
	if err := el.republish(run.objs[0].Ref()); err != nil {
		el.teardownRun(run)
		return nil, fmt.Errorf("core: registering %q: %w", opts.Export.Name, err)
	}
	el.cur = run
	el.insEpoch.Set(1)
	el.insRanks.Set(int64(size))
	return el, nil
}

// Epoch returns the current membership epoch (0 after Close).
func (el *Elastic) Epoch() int {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.cur == nil {
		return 0
	}
	return el.cur.epoch
}

// Size returns the current thread count (0 after Close).
func (el *Elastic) Size() int {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.cur == nil {
		return 0
	}
	return el.cur.size
}

// Ref returns the current epoch's object reference.
func (el *Elastic) Ref() orb.IOR {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.cur == nil {
		return orb.IOR{}
	}
	return el.cur.objs[0].Ref()
}

// Close retires the current epoch: serve loops stop, listeners and the
// world close. Idempotent.
func (el *Elastic) Close() {
	el.resizeMu.Lock()
	defer el.resizeMu.Unlock()
	el.mu.Lock()
	run := el.cur
	el.cur = nil
	el.closed = true
	el.mu.Unlock()
	if run != nil {
		el.teardownRun(run)
	}
}

func (el *Elastic) teardownRun(run *epochRun) {
	for _, o := range run.objs {
		if o != nil {
			o.Close()
		}
	}
	<-run.errc
	run.world.Close()
}

// launch starts one epoch: a fresh world (the previous epoch's successor
// when prev is set), one serve goroutine per rank, state sequences rebuilt
// at the new size and populated from xfer (or seeded on the first epoch).
// It returns once every thread is exported and serving.
func (el *Elastic) launch(prev *rts.World, epoch, size int, lengths []int, xfer *stateXfer) (*epochRun, error) {
	var w *rts.World
	if prev != nil {
		w = prev.Successor(size)
	} else {
		wopts := el.opts.World
		wopts.Epoch = epoch
		w = rts.NewWorld(size, wopts)
	}
	run := &epochRun{
		epoch:   epoch,
		size:    size,
		lengths: append([]int(nil), lengths...),
		world:   w,
		objs:    make([]*Object, size),
		errc:    make(chan error, 1),
	}
	ready := make(chan error, 1)
	go func() {
		run.errc <- w.Run(func(c *rts.Comm) error {
			return el.rankMain(run, c, xfer, ready)
		})
	}()
	select {
	case err := <-ready:
		if err != nil {
			w.Close()
			<-run.errc
			return nil, err
		}
	case err := <-run.errc:
		w.Close()
		if err == nil {
			err = errors.New("core: elastic epoch exited before export")
		}
		return nil, err
	}
	return run, nil
}

// rankMain is one computing thread's life in one epoch: build state, apply
// the inbound transfer, export, wire the elastic hooks, serve.
func (el *Elastic) rankMain(run *epochRun, c *rts.Comm, xfer *stateXfer, ready chan<- error) error {
	me := c.Rank()
	fail := func(err error) error {
		// Closing the world unwedges the other threads' collectives so the
		// whole epoch fails promptly and coherently.
		run.world.Close()
		if me == 0 {
			ready <- err
		}
		return err
	}
	states := make([]dseq.Transferable, len(el.opts.State))
	seqs := make(map[string]dseq.Transferable, len(el.opts.State))
	for i, sd := range el.opts.State {
		st, err := sd.build(c, run.lengths[i])
		if err != nil {
			return fail(fmt.Errorf("core: state %q: %w", sd.Name, err))
		}
		if xfer == nil && sd.Seed != nil {
			if err := sd.Seed(st, c); err != nil {
				return fail(fmt.Errorf("core: seeding state %q: %w", sd.Name, err))
			}
		}
		states[i] = st
		seqs[sd.Name] = st
	}
	if xfer != nil {
		for _, ch := range xfer.chunks[me] {
			if err := states[ch.state].UnmarshalStep(ch.step, ch.payload); err != nil {
				return fail(fmt.Errorf("core: applying transfer to state %q: %w", el.opts.State[ch.state].Name, err))
			}
		}
	}
	es := &EpochState{Comm: c, Epoch: run.epoch, seqs: seqs}
	eopts := el.opts.Export
	eopts.Epoch = run.epoch
	// The controller publishes the name at the commit point; Export must not
	// re-bind it early (a pre-commit abort would leave the name dangling).
	eopts.NameServer = ""
	obj, err := Export(c, eopts, el.opts.Ops(es))
	if err != nil {
		return fail(err)
	}
	obj.elastic = el
	obj.onResize = func() error { return el.snapshotRank(run, c, states) }
	if me == 0 {
		obj.resizeCh = make(chan *resizeTicket, 1)
	}
	run.objs[me] = obj
	// The barrier publishes objs (and the hooks) to the controller: it reads
	// them only after thread 0 signals ready, which happens after the
	// barrier completes on every thread.
	if err := c.Barrier(); err != nil {
		obj.Close()
		return fail(err)
	}
	if me == 0 {
		ready <- nil
	}
	return obj.Serve()
}

// snapshotRank runs inside the collective serve loop on every old-epoch
// thread (via Object.onResize): it diffs each state's old and new layouts
// and marshals the ranges this thread owns that move, in the steps of the one
// chunk schedule (DefaultStreamChunkElems elements of one thread pair's moves
// at most), into the pending transfer buffer, compressed per the export's
// mask; receivers auto-detect, as on every leg.
func (el *Elastic) snapshotRank(run *epochRun, c *rts.Comm, states []dseq.Transferable) error {
	el.mu.Lock()
	p := el.pending
	el.mu.Unlock()
	if p == nil || p.epoch != run.epoch+1 {
		return &orb.SystemException{RepoID: orb.RepoInternal, Message: "core: resize directive with no pending resize"}
	}
	if hook := el.opts.FaultHook; hook != nil {
		if err := hook(ResizeSnapshot, p.epoch); err != nil {
			return err
		}
	}
	me := c.Rank()
	start := time.Now()
	mask := el.opts.Export.Compression
	for si, st := range states {
		oldL := st.Layout()
		spec := st.Spec()
		if spec == nil {
			spec = dist.Block{}
		}
		newL, err := spec.Layout(st.Len(), p.size)
		if err != nil {
			return &orb.SystemException{RepoID: orb.RepoInternal,
				Message: fmt.Sprintf("core: state %q at %d threads: %v", el.opts.State[si].Name, p.size, err)}
		}
		local, cross, err := dist.Diff(oldL, newL)
		if err != nil {
			return &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}
		}
		if me == 0 {
			p.xfer.setLength(si, st.Len())
		}
		// Both lists ship: the epochs are distinct worlds, so even a
		// same-rank move crosses goroutines through the transfer buffer, which
		// is this schedule's wire. Its payloads outlive the call there, so each
		// step renders into an encoder of its own.
		for _, moves := range [2][]dist.Move{local, cross} {
			sc := dist.Schedule{Moves: moves, CE: DefaultStreamChunkElems}
			for ck, ok := sc.Next(); ok; ck, ok = sc.Next() {
				if ck.Src != me {
					continue
				}
				e := cdr.NewEncoder(cdr.NativeOrder)
				if err := st.MarshalStepTo(ck, mask, e); err != nil {
					return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
				}
				p.xfer.add(si, ck, e.Bytes())
			}
		}
	}
	if el.rec != nil {
		el.rec.Record(obs.Span{Trace: uint64(p.epoch), Phase: obs.PhaseResizeMove,
			Rank: int32(me), Start: start.UnixNano(), Dur: int64(time.Since(start))})
	}
	return nil
}

func (el *Elastic) fault(ph ResizePhase, epoch int) error {
	if el.opts.FaultHook == nil {
		return nil
	}
	return el.opts.FaultHook(ph, epoch)
}

func (el *Elastic) span(ph obs.Phase, epoch int, start time.Time) {
	if el.rec == nil {
		return
	}
	el.rec.Record(obs.Span{Trace: uint64(epoch), Phase: ph, Rank: -1,
		Start: start.UnixNano(), Dur: int64(time.Since(start))})
}

// republish binds the given reference under the elastic object's name,
// replacing the previous epoch's. This is the resize commit point.
func (el *Elastic) republish(ref orb.IOR) error {
	cli := orb.NewClient()
	defer cli.Close()
	if to := el.opts.Export.DataTimeout; to > 0 {
		cli.Timeout = to
	}
	res := naming.NewResolver(cli, el.opts.Export.NameServer)
	if el.opts.Export.Replica {
		return res.BindReplica(el.opts.Export.Name, ref)
	}
	return res.Bind(el.opts.Export.Name, ref, true)
}

// Resize changes the object's computing-thread count to n, repartitioning
// the live state onto a successor epoch. It blocks until the new epoch
// serves (or the resize aborts, leaving the old epoch serving). Resizes are
// serialized; a resize to the current size is a no-op.
func (el *Elastic) Resize(n int) error {
	el.resizeMu.Lock()
	defer el.resizeMu.Unlock()
	el.mu.Lock()
	run := el.cur
	closed := el.closed
	el.mu.Unlock()
	if closed || run == nil {
		return ErrStopped
	}
	if n < 1 {
		return fmt.Errorf("core: resize to %d threads", n)
	}
	if n == run.size {
		return nil
	}
	newEpoch := run.epoch + 1
	start := time.Now()
	el.insTotal.Inc()
	abort := func(ph ResizePhase, err error) error {
		el.insAborted.Inc()
		return fmt.Errorf("core: resize to %d (epoch %d) aborted at %s: %w", n, newEpoch, ph, err)
	}

	// Quiesce: shed new arrivals everywhere; queued calls drain ahead of
	// the ticket via the collective loop's priority select.
	if err := el.fault(ResizeQuiesce, newEpoch); err != nil {
		return abort(ResizeQuiesce, err)
	}
	for _, o := range run.objs {
		o.draining.Store(true)
	}
	p := &pendingResize{epoch: newEpoch, size: n, xfer: newStateXfer(len(el.opts.State), n)}
	el.mu.Lock()
	el.pending = p
	el.mu.Unlock()
	undrain := func() {
		el.mu.Lock()
		el.pending = nil
		el.mu.Unlock()
		for _, o := range run.objs {
			o.draining.Store(false)
		}
	}

	// Snapshot: ticket into the collective loop, wait for the agreed
	// outcome. The wait is bounded like a data transfer.
	t := &resizeTicket{snapDone: make(chan error, 1), commit: make(chan bool, 1)}
	select {
	case run.objs[0].resizeCh <- t:
	default:
		undrain()
		return abort(ResizeQuiesce, errors.New("a resize ticket is already pending"))
	}
	var deadline <-chan time.Time
	if to := run.objs[0].opts.DataTimeout; to > 0 {
		tm := time.NewTimer(to)
		defer tm.Stop()
		deadline = tm.C
	}
	select {
	case err := <-t.snapDone:
		if err != nil {
			t.commit <- false
			undrain()
			return abort(ResizeSnapshot, err)
		}
	case err := <-run.errc:
		// The old epoch died under us: nothing to resume. The engine is
		// unusable from here on.
		el.mu.Lock()
		el.cur = nil
		el.closed = true
		el.pending = nil
		el.mu.Unlock()
		for _, o := range run.objs {
			o.Close()
		}
		run.world.Close()
		if err == nil {
			err = errors.New("core: serve loops exited during resize")
		}
		return abort(ResizeSnapshot, err)
	case <-deadline:
		// The buffered commit=false lets a late ticket pickup resume
		// cleanly; its snapshot will fail on the cleared pending anyway.
		t.commit <- false
		undrain()
		return abort(ResizeSnapshot, errors.New("timed out waiting for the collective loop to quiesce"))
	}
	el.span(obs.PhaseResizeQuiesce, newEpoch, start)

	// Spawn: successor world, state rebuilt at the new size, transfer
	// applied.
	if err := el.fault(ResizeSpawn, newEpoch); err != nil {
		t.commit <- false
		undrain()
		return abort(ResizeSpawn, err)
	}
	newRun, err := el.launch(run.world, newEpoch, n, p.xfer.lengths, p.xfer)
	if err != nil {
		t.commit <- false
		undrain()
		return abort(ResizeSpawn, err)
	}

	// Publish: the commit point.
	pubStart := time.Now()
	err = el.fault(ResizePublish, newEpoch)
	if err == nil {
		err = el.republish(newRun.objs[0].Ref())
	}
	if err != nil {
		el.teardownRun(newRun)
		t.commit <- false
		undrain()
		return abort(ResizePublish, err)
	}
	el.span(obs.PhaseResizePublish, newEpoch, pubStart)

	// Retire: committed — post-commit faults are recorded, not honored.
	if err := el.fault(ResizeRetire, newEpoch); err != nil {
		el.insLate.Inc()
	}
	t.commit <- true
	<-run.errc
	// A request can race past the draining check into the queue while the
	// ticket is being served; its adapter goroutine is parked on replyCh.
	// Refuse it re-resolvably so the client rebinds to the new epoch.
	for drained := false; !drained; {
		select {
		case call := <-run.objs[0].queue:
			call.replyCh <- callResult{err: orb.ObjectNotExist(run.objs[0].ref.Key)}
		default:
			drained = true
		}
	}
	for _, o := range run.objs {
		o.Close()
	}
	run.world.Close()
	el.mu.Lock()
	el.cur = newRun
	el.pending = nil
	el.mu.Unlock()
	el.insMovedElems.Add(uint64(p.xfer.crossElems))
	el.insMovedChunks.Add(uint64(p.xfer.chunkCount))
	el.insEpoch.Set(int64(newEpoch))
	el.insRanks.Set(int64(n))
	if el.insDur != nil {
		el.insDur.Observe(time.Since(start))
	}
	return nil
}
