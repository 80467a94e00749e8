package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/deadline"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/store"
)

// rig is one round's system under test: a fresh RM with its store, the
// scheduler decorator, the registered nodes and — on the HTTP workload —
// the loopback server and client.
type rig struct {
	w        *workloadSpec
	t        *tracer
	arrivals [][]arrival

	st  *store.Store
	ps  *probeSched
	srv *rmserver.Server

	nodes      []string
	nodeCap    resource.Vector
	clusterCap resource.Vector

	// HTTP workload only.
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *rmserver.Client
}

// setup builds the round's rig: it generates the scenario, opens the
// store, constructs the scheduler and the RM, and registers the nodes.
// Its wall time is the setup_s metric.
func setup(w *workloadSpec, seed int64, dir string, t *tracer) (*rig, error) {
	arr, err := w.arrivals(seed)
	if err != nil {
		return nil, fmt.Errorf("generate scenario: %w", err)
	}
	r := &rig{w: w, t: t, arrivals: arr}
	var fsys store.FS = store.OSFS
	if t != nil {
		fsys = timedFS{FS: store.OSFS, t: t}
	}
	if r.st, err = store.Open(store.Options{Dir: dir, Policy: w.Fsync, FS: fsys}); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	r.ps = &probeSched{ft: core.New(cfg), t: t}
	r.srv, err = rmserver.New(rmserver.Config{
		SlotDur:   w.SlotDur,
		Scheduler: r.ps,
		Store:     r.st,
		AdHocGate: w.Gate,
	})
	if err != nil {
		r.st.Close()
		return nil, fmt.Errorf("start rm: %w", err)
	}
	if w.Mode == closedHTTP {
		if err := r.serveHTTP(); err != nil {
			r.st.Close()
			return nil, err
		}
	}

	perNode := w.Machines / w.Nodes
	r.nodeCap = resource.New(int64(perNode)*16, int64(perNode)*32*1024) // scenario machine size: 16 cores, 32 GiB
	for i := 0; i < w.Nodes; i++ {
		id := fmt.Sprintf("node-%02d", i)
		r.nodes = append(r.nodes, id)
		r.clusterCap = r.clusterCap.Add(r.nodeCap)
		req := rmproto.RegisterNodeRequest{NodeID: id, Capacity: rmproto.FromVector(r.nodeCap)}
		if _, err := r.register(req); err != nil {
			r.close()
			return nil, fmt.Errorf("register %s: %w", id, err)
		}
	}
	return r, nil
}

func (r *rig) serveHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	r.hs = &http.Server{Handler: serverSpans(r.t, r.srv.Handler())}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	hc := &http.Client{Transport: clientSpans{base: r.transport, t: r.t}}
	r.client = rmserver.NewClient("http://"+ln.Addr().String(), hc)
	return nil
}

// close stops the HTTP server (waiting for it to exit) and closes the
// store. The state directory is left for the caller.
func (r *rig) close() error {
	var errs []error
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, r.hs.Shutdown(ctx))
		cancel()
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		r.transport.CloseIdleConnections()
		r.hs = nil
	}
	if r.st != nil {
		errs = append(errs, r.st.Close())
		r.st = nil
	}
	return errors.Join(errs...)
}

// The RM calls the drivers make, through the Go API or over HTTP. On the
// Go API the benchmark records the rm.* span itself; over HTTP the
// client and server middleware record it.

func (r *rig) register(req rmproto.RegisterNodeRequest) (rmproto.RegisterNodeResponse, error) {
	if r.client != nil {
		return r.client.RegisterNode(context.Background(), req)
	}
	o := r.t.begin(spRegister, 0)
	defer o.end()
	return r.srv.RegisterNode(req, time.Now())
}

func (r *rig) tick(lane int) error {
	if r.client != nil {
		return r.client.Tick(context.Background())
	}
	o := r.t.begin(spTick, lane)
	defer o.end()
	return r.srv.Tick(time.Now())
}

func (r *rig) heartbeat(lane int, req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error) {
	if r.client != nil {
		return r.client.Heartbeat(context.Background(), req)
	}
	o := r.t.begin(spHeartbeat, lane)
	defer o.end()
	return r.srv.Heartbeat(req, time.Now())
}

func (r *rig) submitWF(lane int, req rmproto.SubmitWorkflowRequest) (rmproto.SubmitResponse, error) {
	if r.client != nil {
		return r.client.SubmitWorkflow(context.Background(), req)
	}
	o := r.t.begin(spSubmitWF, lane)
	defer o.end()
	return r.srv.SubmitWorkflow(req)
}

func (r *rig) submitAH(lane int, req rmproto.SubmitAdHocRequest) (rmproto.SubmitResponse, error) {
	if r.client != nil {
		return r.client.SubmitAdHoc(context.Background(), req)
	}
	o := r.t.begin(spSubmitAH, lane)
	defer o.end()
	return r.srv.SubmitAdHoc(req)
}

// recorder collects a round's samples and bookkeeping. The paced
// workload's two goroutines share it: callers hold mu.
type recorder struct {
	mu sync.Mutex

	tick, hb, submit, wfFirst, ahFirst []time.Duration
	hbIn, hbOut, genLag                []time.Duration

	wfWait  map[string]time.Time // workflow ID -> submit start, until its first launch
	ahWait  map[string]time.Time // RM ad-hoc job ID -> submit start
	ahSlot  map[string]int64     // RM ad-hoc job ID -> slot submitted
	refused []int64              // slots of gate refusals

	seen          map[string]bool            // quantum IDs launched so far
	slotGrant     map[int64]resource.Vector  // issued slot -> volume launched
	nodeSlotGrant map[string]resource.Vector // node|slot -> volume launched
	confirmed     resource.Vector            // volume the nodes confirmed
	quanta        int64

	ops, failed int64
	errs        []string
	violations  []string

	decomposed, bestEffort int
	decompose              []time.Duration
}

func newRecorder() *recorder {
	return &recorder{
		wfWait: make(map[string]time.Time), ahWait: make(map[string]time.Time),
		ahSlot: make(map[string]int64),
		seen:   make(map[string]bool), slotGrant: make(map[int64]resource.Vector),
		nodeSlotGrant: make(map[string]resource.Vector),
	}
}

// opDone counts one attempted operation and, when it failed, why.
func (rc *recorder) opDone(what string, err error) {
	rc.ops++
	if err != nil {
		rc.failed++
		if len(rc.errs) < 5 {
			rc.errs = append(rc.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// launched records one heartbeat's launches: exactly-once (no quantum
// launched twice), per-slot volume for the capacity check, and first
// grants.
func (rc *recorder) launched(node string, qs []rmproto.Quantum, at time.Time) {
	for _, q := range qs {
		if rc.seen[q.ID] {
			rc.violations = append(rc.violations, fmt.Sprintf("quantum %s launched twice", q.ID))
		}
		rc.seen[q.ID] = true
		rc.quanta++
		issued := q.DeadlineSlot - rmserver.DefaultLeaseExpiry
		g := q.Grant.ToVector()
		rc.slotGrant[issued] = rc.slotGrant[issued].Add(g)
		key := fmt.Sprintf("%s|%d", node, issued)
		rc.nodeSlotGrant[key] = rc.nodeSlotGrant[key].Add(g)
		if wf, _, ok := strings.Cut(q.JobID, "/"); ok && wf != "adhoc" {
			if t0, waiting := rc.wfWait[wf]; waiting {
				rc.wfFirst = append(rc.wfFirst, at.Sub(t0))
				delete(rc.wfWait, wf)
			}
		} else if t0, waiting := rc.ahWait[q.JobID]; waiting {
			rc.ahFirst = append(rc.ahFirst, at.Sub(t0))
			delete(rc.ahWait, q.JobID)
		}
	}
}

// driver runs one round's traffic against a rig.
type driver struct {
	r  *rig
	rc *recorder
	// held[i] is what node i launched at its previous heartbeat; it
	// confirms them at its next one.
	held    [][]rmproto.Quantum
	ticking atomic.Bool
	ticks   atomic.Int64
}

// submit makes one arrival's submission at slot, timing it from due.
func (d *driver) submit(lane int, a arrival, slot int64, due time.Time) {
	r, rc := d.r, d.rc
	start := time.Now()
	if a.wf != nil {
		resp, err := r.submitWF(lane, rmproto.SubmitWorkflowRequest{Workflow: *a.wf})
		end := time.Now()
		if err == nil && !resp.Accepted {
			err = fmt.Errorf("workflow %s refused", a.wf.ID)
		}
		rc.mu.Lock()
		rc.opDone("submit workflow", err)
		if err == nil {
			rc.submit = append(rc.submit, end.Sub(due))
			rc.wfWait[a.wf.ID] = start
		}
		rc.mu.Unlock()
		if r.t != nil {
			d.decompose(a)
		}
		return
	}
	resp, err := r.submitAH(lane, rmproto.SubmitAdHocRequest{Job: *a.ah})
	end := time.Now()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.opDone("submit ad-hoc", err)
	switch {
	case err != nil:
	case !resp.Accepted:
		// A gate refusal is a failed operation: the user's job did not
		// get in.
		rc.failed++
		rc.refused = append(rc.refused, slot)
	default:
		rc.submit = append(rc.submit, end.Sub(due))
		rc.ahWait[resp.ID] = start
		rc.ahSlot[resp.ID] = slot
	}
}

// decompose times the benchmark's own call to deadline.Decompose with the
// options the RM uses for admission: the demand-based decomposition,
// then the critical-path fallback; failing both means best-effort.
func (d *driver) decompose(a arrival) {
	opts := deadline.Options{Slot: d.r.w.SlotDur, ClusterCap: d.r.clusterCap}
	start := time.Now()
	o := d.r.t.begin(spDecompose, -1)
	_, err := deadline.Decompose(a.wfObj, opts)
	if err != nil {
		opts.ForceCriticalPath = true
		_, err = deadline.Decompose(a.wfObj, opts)
	}
	o.end()
	el := time.Since(start)
	d.rc.mu.Lock()
	d.rc.decompose = append(d.rc.decompose, el)
	d.rc.decomposed++
	if err != nil {
		d.rc.bestEffort++
	}
	d.rc.mu.Unlock()
}

// doTick ticks once, timing from due.
func (d *driver) doTick(lane int, due time.Time) {
	d.ticking.Store(true)
	err := d.r.tick(lane)
	d.ticking.Store(false)
	end := time.Now()
	d.ticks.Add(1)
	d.rc.mu.Lock()
	d.rc.opDone("tick", err)
	d.rc.tick = append(d.rc.tick, end.Sub(due))
	d.rc.mu.Unlock()
}

// doHeartbeat sends node i's heartbeat, confirming what it launched last
// time, and records the new launches.
func (d *driver) doHeartbeat(lane, i int, due time.Time) {
	node := d.r.nodes[i]
	req := rmproto.HeartbeatRequest{NodeID: node}
	for _, q := range d.held[i] {
		req.Completed = append(req.Completed, q.ID)
	}
	inTick := d.ticking.Load()
	start := time.Now()
	resp, err := d.r.heartbeat(lane, req)
	end := time.Now()
	rc := d.rc
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.opDone("heartbeat", err)
	if err != nil {
		return
	}
	for _, q := range d.held[i] {
		rc.confirmed = rc.confirmed.Add(q.Grant.ToVector())
	}
	d.held[i] = resp.Launch
	rc.launched(node, resp.Launch, end)
	// heartbeat_ms is heartbeat to durable confirm, so only heartbeats
	// that confirm work count; the lock-wait split takes every heartbeat.
	if len(req.Completed) > 0 {
		rc.hb = append(rc.hb, end.Sub(due))
	}
	if inTick {
		rc.hbIn = append(rc.hbIn, end.Sub(start))
	} else {
		rc.hbOut = append(rc.hbOut, end.Sub(start))
	}
}

// drive runs the round's traffic and returns the loop's wall time.
func (d *driver) drive() time.Duration {
	d.held = make([][]rmproto.Quantum, len(d.r.nodes))
	start := time.Now()
	if d.r.w.Mode == paced {
		d.drivePaced(start)
	} else {
		for s := int64(0); s < d.r.w.Slots; s++ {
			for _, a := range d.r.arrivals[s] {
				d.submit(0, a, s, time.Now())
			}
			d.doTick(0, time.Now())
			for i := range d.r.nodes {
				d.doHeartbeat(0, i, time.Now())
			}
		}
	}
	return time.Since(start)
}

// drivePaced runs the paced workload: this goroutine submits the slot's
// workflows and ticks at period boundaries; a second goroutine sends each
// node's heartbeat and the slot's ad-hoc submissions at evenly spread
// offsets within each period. Every call is timed from when it was due,
// and the second goroutine's lateness is the generator lag.
func (d *driver) drivePaced(start time.Time) {
	w := d.r.w
	at := func(s int64, frac float64) time.Time {
		return start.Add(time.Duration((float64(s) + frac) * float64(w.Period)))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		type op struct {
			frac float64
			node int // -1: ad-hoc submission
			a    arrival
		}
		for s := int64(0); s < w.Slots; s++ {
			var ops []op
			for i := range d.r.nodes {
				ops = append(ops, op{frac: (float64(i) + 0.5) / float64(len(d.r.nodes)), node: i})
			}
			var adhoc []arrival
			for _, a := range d.r.arrivals[s] {
				if a.ah != nil {
					adhoc = append(adhoc, a)
				}
			}
			for j, a := range adhoc {
				ops = append(ops, op{frac: (float64(j) + 0.25) / float64(len(adhoc)), node: -1, a: a})
			}
			sort.Slice(ops, func(a, b int) bool { return ops[a].frac < ops[b].frac })
			for _, o := range ops {
				due := at(s, o.frac)
				sleepUntil(due)
				lag := time.Since(due)
				if o.node >= 0 {
					d.doHeartbeat(1, o.node, due)
				} else {
					d.submit(1, o.a, d.ticks.Load(), due)
				}
				d.rc.mu.Lock()
				d.rc.genLag = append(d.rc.genLag, lag)
				d.rc.mu.Unlock()
			}
		}
	}()
	next := start
	for s := int64(0); s < w.Slots; s++ {
		sleepUntil(next)
		due := next
		for _, a := range d.r.arrivals[s] {
			if a.wf != nil {
				d.submit(0, a, s, due)
			}
		}
		d.doTick(0, due)
		// Tick like ftrm's time.Ticker: a period boundary missed while a
		// tick ran fires at once, further missed ones are dropped, so a
		// long replan never makes the slot clock race ahead of the nodes.
		next = next.Add(w.Period)
		if behind := time.Since(next); behind > w.Period {
			next = next.Add(behind / w.Period * w.Period)
		}
	}
	wg.Wait()
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
