package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/store"
)

// counts are a round's exact outputs. On a deterministic workload they
// must repeat for the same code and seed, traced or not.
type counts struct {
	Replans, LPPivots     int
	Quanta                int64
	WALRecords, Fsyncs    int64
	Refused               int
	MissRatio, Turnaround float64
}

// roundResult is one round: one scenario seed replayed against a fresh
// RM, with the output checks' verdicts and everything the metrics need.
type roundResult struct {
	traced      bool
	setup, wall time.Duration
	rc          *recorder
	counts      counts
	violations  []string

	decided, missed int
	turnaround      []float64
	refusedIdle     int
	ft              core.Stats
	fallbacks       int64
	store           store.Stats
	diffs           int
	diffBytes       int
	spans           []span
}

// runRound replays scenario seed sub of w against a fresh RM in dir,
// then runs every output check.
func runRound(w *workloadSpec, sub int64, dir string, traced bool) (*roundResult, error) {
	var t *tracer
	if traced {
		t = newTracer()
	}
	runtime.GC()
	t0 := time.Now()
	r, err := setup(w, sub, dir, t)
	if err != nil {
		return nil, err
	}
	res := &roundResult{traced: traced, setup: time.Since(t0)}
	defer os.RemoveAll(dir)

	runtime.GC()
	d := &driver{r: r, rc: newRecorder()}
	res.wall = d.drive()
	rc := d.rc
	res.rc = rc

	status := r.srv.Status()
	res.store = r.st.Stats()
	res.ft = r.ps.ft.Stats()
	deg := r.ps.Degradation()
	res.fallbacks = deg.MinMaxFallbacks + deg.GreedyFallbacks
	res.violations = append(res.violations, rc.violations...)
	res.violations = append(res.violations, checkDelivery(status, rc)...)
	res.violations = append(res.violations, checkCapacity(r, rc)...)

	// Rebuild the plan from the diffs the RM drained and compare it with
	// the scheduler's live plan and the RM's revision.
	shadow, diffBytes, err := replayShadow(r.ps.diffs, t)
	res.diffs, res.diffBytes = len(r.ps.diffs), diffBytes
	if err != nil {
		res.violations = append(res.violations, err.Error())
	} else {
		if err := plan.Equal(shadow, r.ps.LivePlan()); err != nil {
			res.violations = append(res.violations, "shadow plan vs LivePlan(): "+err.Error())
		}
		if status.Plan == nil || status.Plan.Rev != shadow.Rev {
			res.violations = append(res.violations, fmt.Sprintf("shadow plan rev %d vs RM status plan %+v", shadow.Rev, status.Plan))
		}
	}
	if err := r.srv.VerifyRecoveryEquivalence(dir + "-equiv"); err != nil {
		res.violations = append(res.violations, err.Error())
	}
	if traced && int64(rc.bestEffort) != status.Faults.BestEffortAdmissions {
		res.violations = append(res.violations, fmt.Sprintf("benchmark decomposition found %d best-effort workflows, RM admitted %d", rc.bestEffort, status.Faults.BestEffortAdmissions))
	}
	if err := r.close(); err != nil {
		res.violations = append(res.violations, "shutdown: "+err.Error())
	}

	res.missed, res.decided = deadlineOutcome(status)
	res.turnaround = turnarounds(w, status, rc)
	for _, s := range rc.refused {
		if below(rc.slotGrant[s], r.clusterCap) {
			res.refusedIdle++
		}
	}
	// The run keeps every round's samples until it reports; drop the
	// per-quantum bookkeeping, so peak_rss_mb follows the RM rather than
	// the number of rounds.
	rc.seen, rc.slotGrant, rc.nodeSlotGrant = nil, nil, nil
	res.counts = counts{
		Replans: res.ft.Replans, LPPivots: res.ft.LP.Pivots, Quanta: rc.quanta,
		WALRecords: res.store.WALRecords, Fsyncs: res.store.Fsyncs, Refused: len(rc.refused),
		MissRatio: ratio(float64(res.missed), float64(res.decided)), Turnaround: mean(res.turnaround),
	}
	if t != nil {
		res.spans = t.spans
	}
	return res, nil
}

// report holds a run's metric values and, per metric, a note on how it
// was taken.
type report struct {
	values map[string]float64
	notes  map[string]string
}

func newReport() *report {
	return &report{values: make(map[string]float64), notes: make(map[string]string)}
}

// tailChunk is the number of consecutive samples each tail is taken
// over: the highest percentile with tailGap samples beyond it in a chunk
// of 210 is p95.2. The run reports the median over its chunks, so a
// stretch of CPU steal, a long GC cycle or a slow fsync on the shared
// machine moves one chunk's tail, not the run's.
const tailChunk = 210

// timing records name.p50 over the samples of every round pooled (rounds
// replay different scenario seeds, so the pool is one large sample of
// the workload) and, when tail is set, name.tail: the median over
// consecutive chunks of tailChunk samples of each chunk's tail. A pool
// smaller than two chunks is one chunk.
func (rp *report) timing(name string, perRound [][]time.Duration, tail bool) {
	var pool []time.Duration
	for _, s := range perRound {
		pool = append(pool, s...)
	}
	d := summarize(pool)
	rp.values[name+".p50"] = d.P50
	rp.notes[name+".p50"] = fmt.Sprintf("n=%d", d.N)
	if !tail {
		return
	}
	chunks := max(1, len(pool)/tailChunk)
	var tails []float64
	var pct float64
	for k := 0; k < chunks; k++ {
		hi := (k + 1) * tailChunk
		if k == chunks-1 {
			hi = len(pool)
		}
		cd := summarize(pool[k*tailChunk : hi])
		tails = append(tails, cd.Tail)
		pct = cd.TailPct
	}
	rp.values[name+".tail"] = median(tails)
	rp.notes[name+".tail"] = fmt.Sprintf("median over %d chunks of %d samples of each chunk's p%.1f (n=%d)", chunks, min(tailChunk, len(pool)), pct, len(pool))
}

// each collects one sample per round.
func each(rounds []*roundResult, f func(*roundResult) []time.Duration) [][]time.Duration {
	out := make([][]time.Duration, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// endToEndReport computes the end-to-end metrics over untraced rounds.
func endToEndReport(w *workloadSpec, rounds []*roundResult) *report {
	rp := newReport()
	var wall time.Duration
	var ops, failed int64
	var refused int
	var turn []float64
	for _, r := range rounds {
		wall += r.wall
		ops += r.rc.ops
		failed += r.rc.failed
		refused += len(r.rc.refused)
		turn = append(turn, r.turnaround...)
	}
	rp.values["slots_per_s"] = float64(w.Slots*int64(len(rounds))) / wall.Seconds()
	rp.notes["slots_per_s"] = fmt.Sprintf("%d rounds of %d slots", len(rounds), w.Slots)
	rp.timing("tick_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.tick }), false)
	rp.timing("adhoc_first_grant_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.ahFirst }), false)
	rp.timing("heartbeat_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.hb }), false)
	rp.timing("submit_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.submit }), false)
	rp.values["op_success_ratio"] = 1 - ratio(float64(failed), float64(ops))
	rp.notes["op_success_ratio"] = fmt.Sprintf("%d of %d operations failed, %d of them gate refusals", failed, ops, refused)
	rp.values["adhoc_turnaround_slots.mean"] = mean(turn)
	rp.notes["adhoc_turnaround_slots.mean"] = fmt.Sprintf("n=%d", len(turn))
	return rp
}

// layerReport computes the per-layer metrics over traced rounds;
// untraced holds the untraced twin of each, for the tracing overhead.
// Counts are totals over the traced rounds.
func layerReport(w *workloadSpec, rounds, untraced []*roundResult) *report {
	rp := newReport()
	m := rp.values
	var wall, wallOff time.Duration
	var ft core.Stats
	var st store.Stats
	var fallbacks, ops, quanta int64
	var diffs, diffBytes, refusedIdle, adhocAccepted, adhocRefused, decomposed, bestEffort, decided, missed int
	var hbSync, hbTotal time.Duration
	// Span IDs are per round, so each round's spans are analyzed alone.
	lts := make([]layerTimes, len(rounds))
	for i, r := range rounds {
		lts[i] = analyze(r.spans)
		fs, tot := lts[i].syncTime(spHeartbeat)
		hbSync += fs
		hbTotal += tot
		wall += r.wall
		ft.Replans += r.ft.Replans
		ft.LPRounds += r.ft.LPRounds
		ft.StageASkipped += r.ft.StageASkipped
		ft.AdHocFolds += r.ft.AdHocFolds
		ft.LP.Add(r.ft.LP)
		fallbacks += r.fallbacks
		st.Fsyncs += r.store.Fsyncs
		st.WALRecords += r.store.WALRecords
		st.WALBytes += r.store.WALBytes
		ops += r.rc.ops
		diffs += r.diffs
		diffBytes += r.diffBytes
		refusedIdle += r.refusedIdle
		adhocAccepted += len(r.rc.ahSlot)
		adhocRefused += len(r.rc.refused)
		decomposed += r.rc.decomposed
		bestEffort += r.rc.bestEffort
		quanta += r.rc.quanta
		decided += r.decided
		missed += r.missed
	}
	for _, r := range untraced {
		wallOff += r.wall
	}
	spans := func(f func(layerTimes) []time.Duration) [][]time.Duration {
		out := make([][]time.Duration, len(lts))
		for i, lt := range lts {
			out[i] = f(lt)
		}
		return out
	}
	named := func(name string) [][]time.Duration {
		return spans(func(lt layerTimes) []time.Duration { return lt.durations(name) })
	}
	self := func(name string) [][]time.Duration {
		return spans(func(lt layerTimes) []time.Duration { return lt.selfTimes(name) })
	}
	replans := float64(ft.Replans)

	rp.timing("core.replan_ms", named(spReplan), true)
	rp.timing("core.assign_ms", named(spAssign), false)
	m["core.replans"] = replans
	m["core.lp_share"] = ratio(float64(ft.LP.Duration), float64(wall))
	m["core.stage_a_skip_ratio"] = ratio(float64(ft.StageASkipped), replans*float64(resource.NumKinds))
	m["core.fallbacks"] = float64(fallbacks)
	m["core.adhoc_folds"] = float64(ft.AdHocFolds)

	m["lp.rounds"] = float64(ft.LPRounds)
	m["lp.pivots"] = float64(ft.LP.Pivots)
	m["lp.warm_hit_ratio"] = ratio(float64(ft.LP.WarmStarts), float64(ft.LP.WarmStarts+ft.LP.ColdStarts))
	m["lp.warm_fallbacks"] = float64(ft.LP.WarmFallbacks)
	m["lp.refactors"] = float64(ft.LP.Refactors)
	m["lp.solve_ms_per_replan"] = ratio(float64(ft.LP.Duration)/float64(time.Millisecond), replans)

	rp.timing("deadline.decompose_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.decompose }), true)
	m["deadline.best_effort_ratio"] = ratio(float64(bestEffort), float64(decomposed))
	m["deadline.met_ratio"] = 1 - ratio(float64(missed), float64(decided))
	rp.notes["deadline.met_ratio"] = fmt.Sprintf("%d of %d decided deadline jobs missed", missed, decided)

	m["plan.diffs"] = float64(diffs)
	m["plan.diff_bytes.mean"] = ratio(float64(diffBytes), float64(diffs))
	rp.timing("plan.apply_ms", named(spApply), false)
	rp.timing("plan.encode_ms", named(spEncode), false)

	m["store.fsyncs"] = float64(st.Fsyncs)
	rp.timing("store.fsync_ms", named(spSync), true)
	m["store.records_per_fsync"] = ratio(float64(st.WALRecords), float64(st.Fsyncs))
	m["store.wal_bytes_per_op"] = ratio(float64(st.WALBytes), float64(ops))
	m["store.fsync_share_of_heartbeat"] = ratio(float64(hbSync), float64(hbTotal))

	rp.timing("http.server_ms", spans(layerTimes.server), true)
	rp.timing("http.transport_ms", spans(layerTimes.transport), false)

	rp.timing("rmserver.tick_self_ms", self(spTick), false)
	rp.timing("rmserver.heartbeat_self_ms", self(spHeartbeat), false)
	m["rmserver.quanta_per_slot"] = ratio(float64(quanta), float64(w.Slots*int64(len(rounds))))
	rp.timing("rmserver.hb_in_tick_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.hbIn }), true)
	rp.timing("rmserver.hb_out_tick_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.hbOut }), false)

	m["adhoc.admit_ratio"] = ratio(float64(adhocAccepted), float64(adhocAccepted+adhocRefused))
	m["adhoc.refused_with_idle_capacity"] = float64(refusedIdle)

	// The end-to-end tails, taken on the traced rounds: see README.md for
	// why they carry no bound. (timing also records a .p50 for each,
	// which the per-layer report does not print.)
	rp.timing("harness.tick_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.tick }), true)
	rp.timing("harness.adhoc_first_grant_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.ahFirst }), true)
	rp.timing("harness.heartbeat_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.hb }), true)
	rp.timing("harness.submit_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.submit }), true)
	rp.timing("harness.wf_first_grant_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.wfFirst }), true)
	rp.timing("harness.gen_lag_ms", each(rounds, func(r *roundResult) []time.Duration { return r.rc.genLag }), true)
	m["harness.trace_overhead"] = ratio(float64(wall), float64(wallOff)) - 1
	return rp
}

// below reports whether v is under capacity in every resource kind:
// capacity sat idle in that slot.
func below(v, capacity resource.Vector) bool {
	for _, k := range resource.Kinds() {
		if v.Get(k) >= capacity.Get(k) {
			return false
		}
	}
	return true
}

// replayShadow applies every drained diff, in order, to a shadow plan,
// encoding each as the RM's journal does. Traced rounds time both calls.
func replayShadow(diffs []*plan.Diff, t *tracer) (*plan.Plan, int, error) {
	shadow := plan.Empty()
	total := 0
	for _, d := range diffs {
		o := t.begin(spEncode, -1)
		b, err := plan.EncodeDiff(d)
		o.end()
		if err != nil {
			return nil, 0, fmt.Errorf("encode diff %d->%d: %w", d.BaseRev, d.NewRev, err)
		}
		total += len(b)
		o = t.begin(spApply, -1)
		next, err := plan.Apply(shadow, d)
		o.end()
		if err != nil {
			return nil, 0, fmt.Errorf("shadow plan: apply diff %d->%d: %w", d.BaseRev, d.NewRev, err)
		}
		shadow = next
	}
	return shadow, total, nil
}

// checkDelivery is the exactly-once check: no job is delivered more than
// its total, every completed job is delivered exactly its total, the RM's
// delivered volume equals what the nodes confirmed, and no confirm was
// stale.
func checkDelivery(status rmproto.StatusResponse, rc *recorder) []string {
	var out []string
	var delivered resource.Vector
	for _, j := range status.Jobs {
		got, total := j.Delivered.ToVector(), j.Total.ToVector()
		delivered = delivered.Add(got)
		if !got.FitsIn(total) {
			out = append(out, fmt.Sprintf("job %s delivered %v > total %v", j.ID, got, total))
		}
		if j.State == "completed" && got != total {
			out = append(out, fmt.Sprintf("completed job %s delivered %v != total %v", j.ID, got, total))
		}
	}
	if delivered != rc.confirmed {
		out = append(out, fmt.Sprintf("RM delivered %v, nodes confirmed %v", delivered, rc.confirmed))
	}
	if n := status.Faults.StaleConfirms; n != 0 {
		out = append(out, fmt.Sprintf("%d stale confirms", n))
	}
	return out
}

// checkCapacity checks that the quanta launched for each slot fit each
// node's and the cluster's capacity.
func checkCapacity(r *rig, rc *recorder) []string {
	var out []string
	for s, g := range rc.slotGrant {
		if !g.FitsIn(r.clusterCap) {
			out = append(out, fmt.Sprintf("slot %d launched %v > cluster capacity %v", s, g, r.clusterCap))
		}
	}
	for k, g := range rc.nodeSlotGrant {
		if !g.FitsIn(r.nodeCap) {
			out = append(out, fmt.Sprintf("node|slot %s launched %v > node capacity %v", k, g, r.nodeCap))
		}
	}
	return out
}

// deadlineOutcome counts the deadline jobs whose outcome is decided at
// the end of the round — completed, or past their decomposed window's
// deadline — and how many of them missed it, by the RM's own accounting
// (JobStatus.Missed).
func deadlineOutcome(status rmproto.StatusResponse) (missed, decided int) {
	for _, j := range status.Jobs {
		if j.Kind != "deadline" {
			continue
		}
		if j.State == "completed" || j.Missed {
			decided++
		}
		if j.Missed {
			missed++
		}
	}
	return missed, decided
}

// turnarounds returns, per admitted ad-hoc job, the slots from
// submission to completion; a job still running at the end of the round
// counts the slots it has waited so far.
func turnarounds(w *workloadSpec, status rmproto.StatusResponse, rc *recorder) []float64 {
	done := make(map[string]int64)
	for _, j := range status.Jobs {
		if j.Kind == "adhoc" && j.State == "completed" {
			done[j.ID] = int64(time.Duration(j.CompletedSec) * time.Second / w.SlotDur)
		}
	}
	out := make([]float64, 0, len(rc.ahSlot))
	for id, sub := range rc.ahSlot {
		end, ok := done[id]
		if !ok {
			end = status.Slot
		}
		out = append(out, float64(end-sub))
	}
	return out
}

// describeViolations joins a round's violations for the report.
func describeViolations(v []string) string {
	if len(v) > 5 {
		v = append(v[:5:5], fmt.Sprintf("... and %d more", len(v)-5))
	}
	return strings.Join(v, "; ")
}
