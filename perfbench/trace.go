package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/store"
)

// Span names. Every span is recorded by the benchmark around a call it
// makes into a module's public API (or a callback the module makes into
// a benchmark-supplied wrapper); no program code is instrumented.
const (
	spTick       = "rm.tick"         // Server.Tick, or the /v1/tick handler
	spHeartbeat  = "rm.heartbeat"    // Server.Heartbeat, or its handler
	spSubmitWF   = "rm.submit_wf"    // Server.SubmitWorkflow, or its handler
	spSubmitAH   = "rm.submit_adhoc" // Server.SubmitAdHoc, or its handler
	spRegister   = "rm.register"     // Server.RegisterNode, or its handler
	spClient     = "http.client"     // one request on the client side
	spReplan     = "core.replan"     // an Assign call that rebuilt the plan
	spAssign     = "core.assign"     // an Assign call served from the plan
	spWrite      = "store.write"     // store.File.Write on a WAL segment
	spSync       = "store.sync"      // store.File.Sync
	spApply      = "plan.apply"      // plan.Apply on the shadow plan
	spEncode     = "plan.encode"     // plan.EncodeDiff
	spDecompose  = "deadline.decompose"
	headerParent = "X-Perfbench-Span"
)

// span is one timed call. Parent is the span that caused it (0 for a
// top-level operation, or when two lanes were active and the cause is
// ambiguous).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for one round. A nil *tracer is the
// untraced mode: every method is a no-op.
//
// Spans nest by lane: a lane is one driver goroutine (lane 0 drives
// ticks — and everything, on the closed-loop workloads — lane 1 drives
// heartbeats and submissions on the paced workload). Wrappers the
// program calls back into (the scheduler decorator, the filesystem)
// attach to the innermost open span of the only active lane.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	lanes [2][]int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is an in-progress span; close it with end.
type openSpan struct {
	t    *tracer
	lane int // -1: a leaf that is never a parent
	s    span
}

// begin opens a span on lane (or a leaf with lane -1) whose parent is
// the innermost open span of that lane, or of the only active lane for
// a leaf.
func (t *tracer) begin(name string, lane int) openSpan {
	if t == nil {
		return openSpan{}
	}
	o := openSpan{t: t, lane: lane, s: span{ID: t.ids.Add(1), Name: name}}
	t.mu.Lock()
	o.s.Parent = t.parentLocked(lane)
	if lane >= 0 {
		t.lanes[lane] = append(t.lanes[lane], o.s.ID)
	}
	t.mu.Unlock()
	o.s.Start = time.Since(t.epoch)
	return o
}

// beginUnder opens a span on lane under an explicit parent (the HTTP
// server side, whose parent arrives in a request header).
func (t *tracer) beginUnder(name string, lane int, parent int64) openSpan {
	o := t.begin(name, lane)
	if o.t != nil {
		o.s.Parent = parent
	}
	return o
}

func (t *tracer) parentLocked(lane int) int64 {
	if lane >= 0 {
		if st := t.lanes[lane]; len(st) > 0 {
			return st[len(st)-1]
		}
		return 0
	}
	var parent int64
	active := 0
	for _, st := range t.lanes {
		if len(st) > 0 {
			active++
			parent = st[len(st)-1]
		}
	}
	if active != 1 {
		return 0
	}
	return parent
}

// end closes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	if o.lane >= 0 {
		st := o.t.lanes[o.lane]
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == o.s.ID {
				o.t.lanes[o.lane] = append(st[:i], st[i+1:]...)
				break
			}
		}
	}
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// id is the span's identifier (0 when untraced).
func (o openSpan) id() int64 { return o.s.ID }

// layerTimes indexes a round's spans for the per-layer metrics.
type layerTimes struct {
	byName map[string][]span
	self   map[int64]time.Duration // span ID -> duration minus covered child time
	child  map[int64][]span
}

// analyze computes every span's self time: its duration minus the part
// of its interval that its child spans cover.
func analyze(spans []span) layerTimes {
	lt := layerTimes{
		byName: make(map[string][]span),
		self:   make(map[int64]time.Duration, len(spans)),
		child:  make(map[int64][]span),
	}
	for _, s := range spans {
		lt.byName[s.Name] = append(lt.byName[s.Name], s)
		if s.Parent != 0 {
			lt.child[s.Parent] = append(lt.child[s.Parent], s)
		}
	}
	for _, s := range spans {
		kids := lt.child[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		lt.self[s.ID] = s.End - s.Start - covered
	}
	return lt
}

// durations returns the wall times of every span with the given name.
func (lt layerTimes) durations(name string) []time.Duration {
	out := make([]time.Duration, 0, len(lt.byName[name]))
	for _, s := range lt.byName[name] {
		out = append(out, s.End-s.Start)
	}
	return out
}

// selfTimes returns the self times of every span with the given name.
func (lt layerTimes) selfTimes(name string) []time.Duration {
	out := make([]time.Duration, 0, len(lt.byName[name]))
	for _, s := range lt.byName[name] {
		out = append(out, lt.self[s.ID])
	}
	return out
}

// transport returns, for every client span, its duration minus its
// server-side child: the time spent in HTTP framing, the loopback
// socket and the client library.
func (lt layerTimes) transport() []time.Duration {
	var out []time.Duration
	for _, c := range lt.byName[spClient] {
		for _, k := range lt.child[c.ID] {
			out = append(out, (c.End-c.Start)-(k.End-k.Start))
		}
	}
	return out
}

// server returns the wall times of the server-side spans of HTTP
// requests.
func (lt layerTimes) server() []time.Duration {
	var out []time.Duration
	for _, c := range lt.byName[spClient] {
		for _, k := range lt.child[c.ID] {
			out = append(out, k.End-k.Start)
		}
	}
	return out
}

// syncTime sums, over the spans named name that have store.sync
// children, the children's fsync time and the operation's wall time as
// its caller saw it (the client span's, over HTTP).
func (lt layerTimes) syncTime(name string) (sync, total time.Duration) {
	parents := make(map[int64]span)
	for _, c := range lt.byName[spClient] {
		parents[c.ID] = c
	}
	for _, s := range lt.byName[name] {
		var fs time.Duration
		for _, k := range lt.child[s.ID] {
			if k.Name == spSync {
				fs += k.End - k.Start
			}
		}
		if fs == 0 {
			continue
		}
		op := s
		if c, ok := parents[s.Parent]; ok {
			op = c
		}
		sync += fs
		total += op.End - op.Start
	}
	return sync, total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeSched decorates the FlowTime scheduler for the benchmark. It
// forwards every optional interface the RM looks for (PlanStreamer,
// AdHocFolder, DegradationReporter), records the plan diffs the RM
// drains so the benchmark can rebuild a shadow plan from them, and —
// when traced — times each Assign call, classifying it as a replan when
// core's replan counter moved.
type probeSched struct {
	ft    *core.FlowTime
	t     *tracer
	diffs []*plan.Diff
}

var (
	_ sched.Scheduler           = (*probeSched)(nil)
	_ sched.PlanStreamer        = (*probeSched)(nil)
	_ sched.AdHocFolder         = (*probeSched)(nil)
	_ sched.DegradationReporter = (*probeSched)(nil)
)

func (p *probeSched) Name() string { return p.ft.Name() }

func (p *probeSched) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	if p.t == nil {
		return p.ft.Assign(ctx)
	}
	before := p.ft.Stats().Replans
	o := p.t.begin(spAssign, 0)
	g, err := p.ft.Assign(ctx)
	if p.ft.Stats().Replans != before {
		o.s.Name = spReplan
	}
	o.end()
	return g, err
}

func (p *probeSched) LivePlan() *plan.Plan { return p.ft.LivePlan() }

func (p *probeSched) TakePlanDiffs() []*plan.Diff {
	ds := p.ft.TakePlanDiffs()
	p.diffs = append(p.diffs, ds...)
	return ds
}

func (p *probeSched) FoldAdHocDrain(from int64, consumed []resource.Vector) {
	p.ft.FoldAdHocDrain(from, consumed)
}

func (p *probeSched) Degradation() sched.DegradationStatus { return p.ft.Degradation() }

// timedFS wraps the store's filesystem so every WAL write and fsync
// becomes a leaf span.
type timedFS struct {
	store.FS
	t *tracer
}

func (f timedFS) OpenAppend(path string) (store.File, error) {
	fl, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: fl, t: f.t}, nil
}

func (f timedFS) Create(path string) (store.File, error) {
	fl, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: fl, t: f.t}, nil
}

type timedFile struct {
	store.File
	t *tracer
}

func (f timedFile) Write(b []byte) (int, error) {
	o := f.t.begin(spWrite, -1)
	n, err := f.File.Write(b)
	o.end()
	return n, err
}

func (f timedFile) Sync() error {
	o := f.t.begin(spSync, -1)
	err := f.File.Sync()
	o.end()
	return err
}

// routeSpan names the server-side span of each RM route.
var routeSpan = map[string]string{
	"/v1/tick":            spTick,
	"/v1/nodes/heartbeat": spHeartbeat,
	"/v1/nodes/register":  spRegister,
	"/v1/workflows":       spSubmitWF,
	"/v1/adhoc":           spSubmitAH,
}

// serverSpans is HTTP middleware around the RM's handler: each request
// becomes a span named for its route, parented to the client span whose
// ID the request carries.
func serverSpans(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(headerParent), 10, 64)
		name, ok := routeSpan[r.URL.Path]
		if !ok {
			name = "rm.other"
		}
		o := t.beginUnder(name, 0, parent)
		h.ServeHTTP(w, r)
		o.end()
	})
}

// clientSpans is the client-side RoundTripper: each request becomes a
// span whose ID travels to the server in a header.
type clientSpans struct {
	base http.RoundTripper
	t    *tracer
}

func (c clientSpans) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.t == nil {
		return c.base.RoundTrip(r)
	}
	o := c.t.begin(spClient, 0)
	r = r.Clone(r.Context())
	r.Header.Set(headerParent, strconv.FormatInt(o.id(), 10))
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		o.end()
		return nil, err
	}
	// Read the (small) body here so the span covers the whole response.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}
