package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"flowtime/internal/scenario"
	"flowtime/internal/store"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// driveMode is how the benchmark offers load to the RM.
type driveMode int

const (
	// closedAPI: one goroutine calls the Go API; each slot it submits the
	// arrivals that are due, ticks, then heartbeats every node.
	closedAPI driveMode = iota
	// closedHTTP: the same loop, through Server.Handler() over one
	// keep-alive loopback connection (the path ftsubmit and ftnode use).
	closedHTTP
	// paced: one goroutine ticks on a fixed wall-clock period; a second
	// sends heartbeats and ad-hoc submissions on a fixed open-loop
	// schedule, each timed from when it was due.
	paced
)

func (m driveMode) String() string {
	return [...]string{"closed-loop Go API, 1 goroutine", "closed-loop HTTP, 1 goroutine, 1 keep-alive connection", "paced: ticker goroutine + open-loop heartbeat/submit goroutine"}[m]
}

// workloadSpec is one benchmark workload: a scenario generator spec, the
// slice of it replayed per round, and how the RM is configured and
// driven.
type workloadSpec struct {
	Name string
	Why  string

	Generator       string
	Machines        int // scenario machines; registered as Nodes equal nodes
	Nodes           int
	WorkflowsPerDay int
	AdHocPerDay     int
	SlotDur         time.Duration
	// From and Slots bound the replayed window in scenario slots: the
	// arrivals submitted in [From, From+Slots), one RM slot per scenario
	// slot, starting from RM slot 0. With AtFlash, From counts from the
	// first arrival of the scenario's flash crowd instead of midnight.
	From, Slots int64
	AtFlash     bool
	// Workflows, when set, fixes how many workflows a round plans: the
	// window is the first one of Slots slots starting at or after From
	// that holds exactly Workflows workflow submissions. Rounds then
	// differ in arrival times, shapes and sizes but not in workflow count
	// or length. (The count in a window fixed at From is binomial, and the
	// LP's superlinear cost in it made whole runs heavy or light.)
	Workflows int

	// Round is the nominal wall time of one round; a run of -seconds S
	// replays max(1, S/Round) scenario seeds.
	Round time.Duration

	Fsync  store.SyncPolicy
	Gate   bool // rmserver.Config.AdHocGate
	Mode   driveMode
	Period time.Duration // wall-clock slot period (paced only)
	// Procs is GOMAXPROCS for the run, fixed so the figures do not depend
	// on the machine's core count: 1 on the HTTP loop, so client and
	// server never wake each other across CPUs; 2 elsewhere, so the LP's
	// garbage is collected beside the driver rather than inside its
	// microsecond calls, and both paced goroutines can run at once.
	Procs int
	// Deterministic workloads must repeat their exact counts for the same
	// code and seed (the determinism guard).
	Deterministic bool
}

// workloads are the benchmark's workloads; see perfbench/README.md for
// why each was chosen and which layer it loads.
var workloads = []*workloadSpec{
	{
		Name:      "deadline-dense",
		Why:       "planner-bound: core and lp do almost all the work, so stage-B and solver changes show here",
		Generator: "diurnal", Machines: 100, Nodes: 10,
		WorkflowsPerDay: 100, AdHocPerDay: 400, SlotDur: time.Minute,
		From: 8 * 60, Slots: 90, Workflows: 7, Round: 450 * time.Millisecond,
		Fsync: store.SyncNever, Mode: closedAPI, Procs: 2, Deterministic: true,
	},
	{
		Name:      "adhoc-flood",
		Why:       "control-plane-bound: every op pays HTTP, rmserver, the ad-hoc gate and an fsync; replans are rare, so solver changes should not move it",
		Generator: "flash", Machines: 400, Nodes: 50,
		WorkflowsPerDay: 4, AdHocPerDay: 2000, SlotDur: time.Minute,
		From: -20, Slots: 120, AtFlash: true, Round: 650 * time.Millisecond,
		Fsync: store.SyncNever, Gate: true, Mode: closedHTTP, Procs: 1, Deterministic: true,
	},
	{
		Name:      "mixed-paced",
		Why:       "lock contention: heartbeats on a fixed schedule wait behind the solver that Tick runs under the RM state lock",
		Generator: "diurnal", Machines: 100, Nodes: 10,
		WorkflowsPerDay: 100, AdHocPerDay: 6000, SlotDur: time.Minute,
		From: 8 * 60, Slots: 40, Round: 1200 * time.Millisecond,
		Fsync: store.SyncNever, Mode: paced, Period: 25 * time.Millisecond, Procs: 2,
	},
}

// windowWith returns the first window start at or after from whose Slots
// slots hold exactly w.Workflows submissions of wfs, or, if no window in
// the day does, the first with the nearest count.
func (w *workloadSpec) windowWith(wfs []*workflow.Workflow, from int64) int64 {
	day := int64(24 * time.Hour / w.SlotDur)
	perSlot := make([]int, day)
	for _, wf := range wfs {
		if s := int64(wf.Submit / w.SlotDur); s >= 0 && s < day {
			perSlot[s]++
		}
	}
	n := 0
	for s := from; s < from+w.Slots && s < day; s++ {
		n += perSlot[s]
	}
	best, bestGap := from, -1
	for start := from; start+w.Slots <= day; start++ {
		if start > from {
			n += perSlot[start+w.Slots-1] - perSlot[start-1]
		}
		gap := n - w.Workflows
		if gap < 0 {
			gap = -gap
		}
		if bestGap < 0 || gap < bestGap {
			best, bestGap = start, gap
		}
		if gap == 0 {
			break
		}
	}
	return best
}

// window describes the replayed window of each round.
func (w *workloadSpec) window() string {
	switch {
	case w.Workflows > 0:
		return fmt.Sprintf("the first %d slots from slot %d on that hold %d workflow submissions", w.Slots, w.From, w.Workflows)
	case w.AtFlash:
		return fmt.Sprintf("slots [%d,%d) from the flash crowd's first arrival", w.From, w.From+w.Slots)
	}
	return fmt.Sprintf("slots [%d,%d)", w.From, w.From+w.Slots)
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// arrival is one submission the benchmark makes: a workflow or an ad-hoc
// job, in wire form.
type arrival struct {
	submit time.Duration
	wf     *trace.WorkflowRecord
	wfObj  *workflow.Workflow // the generated workflow, for the traced Decompose calls
	ah     *trace.AdHocRecord
}

// arrivals generates the scenario for seed and returns the submissions
// due in each replayed slot, in submit-time order.
func (w *workloadSpec) arrivals(seed int64) ([][]arrival, error) {
	sc, err := scenario.Generate(scenario.Spec{
		Name:            w.Generator,
		Seed:            seed,
		Machines:        w.Machines,
		Days:            1,
		SlotDur:         w.SlotDur,
		WorkflowsPerDay: w.WorkflowsPerDay,
		AdHocPerDay:     w.AdHocPerDay,
	})
	if err != nil {
		return nil, err
	}
	from := w.From
	if w.AtFlash {
		first := time.Duration(-1)
		for _, ah := range sc.AdHoc {
			// The flash generator names its crowd's jobs fc-<day>-<n>.
			if strings.HasPrefix(ah.ID, "fc-") && (first < 0 || ah.Submit < first) {
				first = ah.Submit
			}
		}
		if first < 0 {
			return nil, fmt.Errorf("scenario %s seed %d has no flash crowd", w.Generator, seed)
		}
		from += int64(first / w.SlotDur)
	}
	if w.Workflows > 0 {
		from = w.windowWith(sc.Workflows, from)
	}
	var all []arrival
	slotOf := func(t time.Duration) int64 { return int64(t/w.SlotDur) - from }
	in := func(t time.Duration) bool { s := slotOf(t); return s >= 0 && s < w.Slots }
	for _, wf := range sc.Workflows {
		if !in(wf.Submit) {
			continue
		}
		t, err := trace.FromWorkload([]*workflow.Workflow{wf}, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, arrival{submit: wf.Submit, wf: &t.Workflows[0], wfObj: wf})
	}
	for _, ah := range sc.AdHoc {
		if !in(ah.Submit) {
			continue
		}
		t, err := trace.FromWorkload(nil, []workflow.AdHoc{ah})
		if err != nil {
			return nil, err
		}
		all = append(all, arrival{submit: ah.Submit, ah: &t.AdHoc[0]})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].submit < all[b].submit })
	out := make([][]arrival, w.Slots)
	for _, a := range all {
		s := slotOf(a.submit)
		out[s] = append(out[s], a)
	}
	return out, nil
}
