package sim

import (
	"errors"
	"fmt"
	"sync"
)

// ErrCrash is the sentinel wrapped by every injected crash. Protocol code
// returns it up the stack, simulating the client process dying at that point;
// callers (tests, the property checkers) detect it with errors.Is.
var ErrCrash = errors.New("sim: injected client crash")

// Point is a declared crash point: a named step boundary of a protocol at
// which the client may die. A package declares its points as package-level
// variables through Points.Declare or Points.DeclareWindow, which list them
// too. Check, Arm and ArmAfter take a *Point, so a name written at a check
// site does not compile, and a package's Points holds every point it checks.
type Point struct {
	name   string
	window bool
}

// String returns the point's name, "<package>/<step>".
func (p *Point) String() string { return p.name }

// Points is one package's crash points, in declaration order.
type Points []*Point

// Declare appends a crash point named name to ps and returns it.
func (ps *Points) Declare(name string) *Point {
	p := &Point{name: name}
	*ps = append(*ps, p)
	return p
}

// DeclareWindow declares a crash point that is also an atomicity window: a
// crash there must leave data and provenance both present or both absent
// once the architecture's background machinery has caught up (Table 1).
func (ps *Points) DeclareWindow(name string) *Point {
	p := ps.Declare(name)
	p.window = true
	return p
}

// Windows returns the atomicity windows among ps, in declaration order.
func (ps Points) Windows() Points {
	var out Points
	for _, p := range ps {
		if p.window {
			out = append(out, p)
		}
	}
	return out
}

// CrashError reports an injected crash at a declared protocol point.
type CrashError struct {
	// Point is the name of the crash point that fired.
	Point string
}

// Error implements the error interface.
func (e *CrashError) Error() string {
	return fmt.Sprintf("sim: injected client crash at %q", e.Point)
}

// Unwrap makes errors.Is(err, ErrCrash) true for injected crashes.
func (e *CrashError) Unwrap() error { return ErrCrash }

// FaultClass is the kind of failure a fault injects. Crashes model the
// client process dying at a protocol point; the other three model the cloud
// service failing an individual API call.
type FaultClass int

// The fault classes the resilience subsystem distinguishes.
const (
	// ClassCrash kills the client at a protocol point (Check).
	ClassCrash FaultClass = iota
	// ClassTransient fails the op without applying it — a throttle, 503 or
	// timeout a retry can wait out.
	ClassTransient
	// ClassPermanent fails the op without applying it — an error no retry
	// will cure (denied, invalid); callers must surface it.
	ClassPermanent
	// ClassAckLoss applies the op but loses the response: the caller sees a
	// transient error even though the state changed. This is the case that
	// breaks naive retries — the retried op re-applies.
	ClassAckLoss
	// ClassCorrupt tampers with committed state after the fact: a byte
	// flipped in a stored record, two versions' lineage swapped, a record
	// silently dropped. Unlike the other classes it is not an API-call
	// failure — the harness applies it post-commit through raw cloud
	// access — so ArmOp rejects it; use ArmCorruption.
	ClassCorrupt
)

// String names the class for fault-schedule logs.
func (c FaultClass) String() string {
	switch c {
	case ClassCrash:
		return "crash"
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassAckLoss:
		return "ackloss"
	case ClassCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("FaultClass(%d)", int(c))
	}
}

// CorruptKind selects how a post-commit corruption mutates the store.
type CorruptKind int

// The corruption kinds the tamper-evidence sweep injects.
const (
	// CorruptFlipByte alters one byte of a stored record value.
	CorruptFlipByte CorruptKind = iota
	// CorruptSwapVersion swaps lineage between adjacent versions (or
	// forges a stored version number, on stores that keep one version).
	CorruptSwapVersion
	// CorruptDropRecord silently removes one committed record.
	CorruptDropRecord
)

// String names the kind for fault-schedule logs.
func (k CorruptKind) String() string {
	switch k {
	case CorruptFlipByte:
		return "flip-byte"
	case CorruptSwapVersion:
		return "swap-version"
	case CorruptDropRecord:
		return "drop-record"
	default:
		return fmt.Sprintf("CorruptKind(%d)", int(k))
	}
}

// Corruption is one armed post-commit tampering. Pick seeds the
// deterministic choice of victim (which item, which attribute), so a
// logged schedule replays to the identical mutation.
type Corruption struct {
	Kind CorruptKind
	Pick int64
}

// OpOutcome tells a simulated service what to do with one API call.
type OpOutcome int

// Outcomes of CheckOp.
const (
	// OpProceed: no fault; execute normally.
	OpProceed OpOutcome = iota
	// OpFailTransient: do not apply; return a transient (retryable) error.
	OpFailTransient
	// OpFailPermanent: do not apply; return a permanent error.
	OpFailPermanent
	// OpAckLoss: apply fully, then return a transient error anyway.
	OpAckLoss
)

// opFault is one armed op-level fault window: it fires on the op's checks
// numbered [from, from+count), where from is absolute (counted from the
// plan's creation) and fixed at arm time.
type opFault struct {
	class FaultClass
	from  int
	count int
}

// FaultPlan injects crashes at named protocol points and service-level
// failures at named operations. Protocol implementations call Check at each
// step boundary; a plan armed for that point makes Check return a
// *CrashError exactly once (a client crashes once, then restarts and runs
// recovery). Simulated services call CheckOp before applying an API call; an
// armed op fault makes them fail (or apply-then-fail, for ack loss).
//
// The zero value is a usable plan with no faults armed. FaultPlan is safe for
// concurrent use.
type FaultPlan struct {
	mu    sync.Mutex
	armed map[*Point]int // point -> remaining hits before firing
	fired map[*Point]int // point -> times fired (for assertions)

	opArmed  map[string][]opFault // op -> armed windows
	opChecks map[string]int       // op -> checks seen so far
	opFired  map[string]int       // op -> times an op fault fired

	corruptions []Corruption // armed post-commit corruptions, in arm order
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// Arm schedules a crash the next time point is checked.
func (p *FaultPlan) Arm(point *Point) { p.ArmAfter(point, 0) }

// ArmAfter schedules a crash at the (skip+1)-th check of point. skip = 0
// crashes on the first check; skip = 2 lets the point pass twice and crashes
// on the third. This is how tests crash, say, the second PutAttributes call
// of a multi-chunk store.
func (p *FaultPlan) ArmAfter(point *Point, skip int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed == nil {
		p.armed = make(map[*Point]int)
	}
	p.armed[point] = skip
}

// Check reports whether the client crashes at point. A nil plan never
// crashes, so production paths can carry a nil *FaultPlan at zero cost; a
// nil point is never armed.
func (p *FaultPlan) Check(point *Point) error {
	if p == nil || point == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	remaining, ok := p.armed[point]
	if !ok {
		return nil
	}
	if remaining > 0 {
		p.armed[point] = remaining - 1
		return nil
	}
	delete(p.armed, point)
	if p.fired == nil {
		p.fired = make(map[*Point]int)
	}
	p.fired[point]++
	return &CrashError{Point: point.name}
}

// Fired reports how many times a crash fired at point.
func (p *FaultPlan) Fired(point *Point) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[point]
}

// Pending reports whether any armed fault has not yet fired. Tests use it to
// assert that the scenario actually reached its crash point.
func (p *FaultPlan) Pending() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.armed) > 0
}

// ArmOp schedules count consecutive faults of the given class at operation
// op (a service-qualified name like "s3/PUT"), starting after the next skip
// checks of op pass through. A transient fault with count = 3 fails the op
// three times and lets the fourth attempt through — the shape a backoff
// policy must absorb. ClassCrash is a protocol-point concept and is
// rejected here.
func (p *FaultPlan) ArmOp(op string, class FaultClass, skip, count int) {
	if p == nil || count <= 0 {
		return
	}
	if class == ClassCrash {
		panic("sim: ArmOp cannot inject ClassCrash; use Arm on a protocol point")
	}
	if class == ClassCorrupt {
		panic("sim: ArmOp cannot inject ClassCorrupt; use ArmCorruption")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opArmed == nil {
		p.opArmed = make(map[string][]opFault)
	}
	p.opArmed[op] = append(p.opArmed[op], opFault{class: class, from: p.opChecks[op] + skip, count: count})
}

// CheckOp reports how the service must treat this call of op. Each call
// consumes one check slot; the first armed window covering the slot decides
// the outcome. A nil plan always proceeds, so production services carry a
// nil *FaultPlan at zero cost.
func (p *FaultPlan) CheckOp(op string) OpOutcome {
	if p == nil {
		return OpProceed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opChecks == nil {
		p.opChecks = make(map[string]int)
	}
	idx := p.opChecks[op]
	p.opChecks[op] = idx + 1
	for _, w := range p.opArmed[op] {
		if idx < w.from || idx >= w.from+w.count {
			continue
		}
		if p.opFired == nil {
			p.opFired = make(map[string]int)
		}
		p.opFired[op]++
		switch w.class {
		case ClassTransient:
			return OpFailTransient
		case ClassPermanent:
			return OpFailPermanent
		case ClassAckLoss:
			return OpAckLoss
		}
	}
	return OpProceed
}

// DisarmOps drops every armed op-fault window that has not yet fired.
// Harnesses call it when scheduled injection is over but raw access to the
// services follows (e.g. applying post-commit corruption): the adversary's
// out-of-band writes are not subject to the workload's fault schedule.
// Check counters and fired counts are preserved.
func (p *FaultPlan) DisarmOps() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.opArmed = nil
}

// ArmCorruption schedules a post-commit corruption. The plan only carries
// the schedule — the harness applies it through raw cloud access once
// recovery has converged, then asserts the verifier detects it.
func (p *FaultPlan) ArmCorruption(c Corruption) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.corruptions = append(p.corruptions, c)
}

// Corruptions returns the armed post-commit corruptions, in arm order.
func (p *FaultPlan) Corruptions() []Corruption {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Corruption(nil), p.corruptions...)
}

// OpFired reports how many op faults fired at op.
func (p *FaultPlan) OpFired(op string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opFired[op]
}

// OpChecks reports how many times op was checked — the attempt count a
// retried operation generated, as the service saw it.
func (p *FaultPlan) OpChecks(op string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opChecks[op]
}
