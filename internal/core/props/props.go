// Package props verifies Table 1 empirically: for each architecture it runs
// scripted crash, consistency, causal-ordering and query-cost scenarios and
// reports which of the paper's properties actually hold. The benchmark
// harness prints the resulting matrix next to the paper's.
package props

import (
	"context"
	"errors"
	"fmt"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Env is one architecture under test, freshly constructed per scenario.
type Env struct {
	Cloud *cloud.Cloud
	Store shard.Store
	// Pump drives background machinery (the commit daemon). It simulates a
	// *restarted* daemon, so in-memory daemon state does not survive a
	// crash scenario. Nil means no machinery.
	Pump func(ctx context.Context) error
	// Recover runs the architecture's crash-recovery path (orphan scan).
	// Nil means none.
	Recover func(ctx context.Context) error
}

// Harness builds Envs for one architecture.
type Harness struct {
	Name string
	New  func(faults *sim.FaultPlan) (*Env, error)
}

// Report is the measured Table 1 row plus evidence.
type Report struct {
	Name     string
	Measured core.Properties
	Claimed  core.Properties
	// Violations describes each observed property violation.
	Violations []string
	// QueryOps is the total op count of the efficiency probe; Objects is
	// the repository size it ran against.
	QueryOps int64
	Objects  int
}

// delayCfg is the consistency stress configuration shared by scenarios.
const propDelay = 5 * time.Second

// StandardHarnesses returns the three architectures wired for property
// checking.
func StandardHarnesses(seed int64) []Harness {
	var out []Harness
	for _, name := range arch.Names {
		out = append(out, Harness{Name: name, New: func(f *sim.FaultPlan) (*Env, error) {
			cl := cloud.New(cloud.Config{Seed: seed, MaxDelay: propDelay})
			st, _, err := arch.Build(arch.Config{Name: name, Cloud: cl, Faults: f})
			if err != nil {
				return nil, err
			}
			env := &Env{Cloud: cl, Store: st}
			switch st := st.(type) {
			case *s3sdb.Store:
				env.Recover = func(ctx context.Context) error {
					_, err := st.OrphanScan(ctx)
					return err
				}
			case *s3sdbsqs.Store:
				env.Pump = func(ctx context.Context) error {
					// A fresh daemon each pump models restart-after-crash. A
					// transaction wedged by the scenario's crash never
					// drains; that is the scenario's finding, not an error.
					err := s3sdbsqs.Drain(ctx, cl.Settle, s3sdbsqs.NewCommitDaemon(st, nil))
					if errors.Is(err, s3sdbsqs.ErrNotDrained) && ctx.Err() == nil {
						return nil
					}
					return err
				}
			}
			return env, nil
		}})
	}
	return out
}

// Check measures every property for one harness.
func Check(ctx context.Context, h Harness) (*Report, error) {
	report := &Report{Name: h.Name}

	atomic, violations, err := checkAtomicity(ctx, h)
	if err != nil {
		return nil, fmt.Errorf("%s: atomicity check: %w", h.Name, err)
	}
	report.Measured.Atomicity = atomic
	report.Violations = append(report.Violations, violations...)

	consistent, violations, err := checkConsistency(ctx, h)
	if err != nil {
		return nil, fmt.Errorf("%s: consistency check: %w", h.Name, err)
	}
	report.Measured.Consistency = consistent
	report.Violations = append(report.Violations, violations...)

	causal, violations, err := checkCausalOrdering(ctx, h)
	if err != nil {
		return nil, fmt.Errorf("%s: causal ordering check: %w", h.Name, err)
	}
	report.Measured.CausalOrdering = causal
	report.Violations = append(report.Violations, violations...)

	efficient, ops, objects, err := checkEfficientQuery(ctx, h)
	if err != nil {
		return nil, fmt.Errorf("%s: query efficiency check: %w", h.Name, err)
	}
	report.Measured.EfficientQuery = efficient
	report.QueryOps = ops
	report.Objects = objects

	env, err := h.New(nil)
	if err != nil {
		return nil, err
	}
	report.Claimed = env.Store.Properties()
	return report, nil
}

// fileEvent builds a small test flush event.
func fileEvent(object string, records ...prov.Record) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID(object), Version: 0}
	base := []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeFile),
		prov.NewString(ref, prov.AttrName, object),
	}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte("data-" + object), Records: append(base, records...)}
}

// checkAtomicity crashes the client at every protocol window and inspects
// the surviving state: atomicity holds iff data and provenance are always
// both present or both absent (after the background machinery catches up).
func checkAtomicity(ctx context.Context, h Harness) (bool, []string, error) {
	atomic := true
	var violations []string
	for _, point := range arch.CrashPoints[h.Name].Windows() {
		faults := sim.NewFaultPlan()
		faults.Arm(point)
		env, err := h.New(faults)
		if err != nil {
			return false, nil, err
		}
		object := prov.ObjectID("/atom" + sanitize(point.String()))
		perr := core.Put(ctx, env.Store, fileEvent(string(object)))
		if perr != nil && !errors.Is(perr, sim.ErrCrash) {
			return false, nil, perr
		}
		env.Cloud.Settle()
		if env.Pump != nil {
			if err := env.Pump(ctx); err != nil {
				return false, nil, err
			}
		}
		env.Cloud.Settle()

		dataOK, provOK, err := probeState(ctx, env.Store, object)
		if err != nil {
			return false, nil, err
		}
		if dataOK != provOK {
			atomic = false
			violations = append(violations,
				fmt.Sprintf("atomicity: crash at %s left data=%v provenance=%v", point, dataOK, provOK))
			// Verify the recovery path repairs it, as §4.2 prescribes.
			if env.Recover != nil {
				if err := env.Recover(ctx); err != nil {
					return false, nil, err
				}
				dataOK2, provOK2, err := probeState(ctx, env.Store, object)
				if err != nil {
					return false, nil, err
				}
				if dataOK2 != provOK2 {
					violations = append(violations,
						fmt.Sprintf("atomicity: recovery failed to repair %s", point))
				}
			}
		}
	}
	return atomic, violations, nil
}

// probeState reports whether the object's data and provenance are visible.
func probeState(ctx context.Context, st core.Store, object prov.ObjectID) (dataOK, provOK bool, err error) {
	_, gerr := st.Get(ctx, object)
	switch {
	case gerr == nil:
		dataOK, provOK = true, true
	case errors.Is(gerr, core.ErrNoProvenance):
		dataOK = true
	case errors.Is(gerr, core.ErrNotFound), errors.Is(gerr, core.ErrInconsistent):
		// fall through to the provenance probe
	default:
		return false, false, gerr
	}
	if !provOK {
		_, perr := st.Provenance(ctx, prov.Ref{Object: object, Version: 0})
		switch {
		case perr == nil:
			provOK = true
		case errors.Is(perr, core.ErrNotFound):
		default:
			return false, false, perr
		}
	}
	return dataOK, provOK, nil
}

// checkConsistency churns versions under propagation delay and watches for
// torn reads: data from one version paired with provenance from another.
func checkConsistency(ctx context.Context, h Harness) (bool, []string, error) {
	env, err := h.New(nil)
	if err != nil {
		return false, nil, err
	}
	const object = prov.ObjectID("/consistency")
	for v := 0; v < 4; v++ {
		ref := prov.Ref{Object: object, Version: prov.Version(v)}
		marker := fmt.Sprintf("gen-%d", v)
		ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte(marker),
			Records: []prov.Record{
				prov.NewString(ref, prov.AttrType, prov.TypeFile),
				prov.NewString(ref, prov.AttrEnv, marker),
			}}
		if err := core.Put(ctx, env.Store, ev); err != nil {
			return false, nil, err
		}
		if env.Pump != nil {
			if err := env.Pump(ctx); err != nil {
				return false, nil, err
			}
		}
		env.Cloud.Clock.Advance(propDelay / 3) // partial propagation
	}

	consistent := true
	var violations []string
	for i := 0; i < 60; i++ {
		obj, err := env.Store.Get(ctx, object)
		if err != nil {
			continue // surfaced errors are acceptable; hidden mismatches are not
		}
		var marker string
		for _, r := range obj.Records {
			if r.Attr == prov.AttrEnv {
				marker = r.Value.Str
			}
		}
		if string(obj.Data) != marker {
			consistent = false
			violations = append(violations,
				fmt.Sprintf("consistency: read returned data %q with provenance %q", obj.Data, marker))
			break
		}
	}
	return consistent, violations, nil
}

// checkCausalOrdering runs a three-stage pipeline and verifies that every
// input reference in retrievable provenance resolves to retrievable
// provenance — no dangling ancestors (eventually).
func checkCausalOrdering(ctx context.Context, h Harness) (bool, []string, error) {
	env, err := h.New(nil)
	if err != nil {
		return false, nil, err
	}
	sys := pass.NewSystem(pass.Config{Flush: core.Flusher(env.Store)})
	if err := sys.Ingest(ctx, "/c/in", []byte("source")); err != nil {
		return false, nil, err
	}
	p1 := sys.Exec(nil, pass.ExecSpec{Name: "stage1"})
	if err := sys.Read(p1, "/c/in"); err != nil {
		return false, nil, err
	}
	if err := sys.Write(p1, "/c/mid", []byte("mid"), pass.Truncate); err != nil {
		return false, nil, err
	}
	p2 := sys.Exec(nil, pass.ExecSpec{Name: "stage2"})
	if err := sys.Read(p2, "/c/mid"); err != nil {
		return false, nil, err
	}
	if err := sys.Write(p2, "/c/out", []byte("out"), pass.Truncate); err != nil {
		return false, nil, err
	}
	if err := sys.Close(ctx, p2, "/c/out"); err != nil {
		return false, nil, err
	}
	if err := sys.Close(ctx, p1, "/c/mid"); err != nil {
		return false, nil, err
	}
	if env.Pump != nil {
		if err := env.Pump(ctx); err != nil {
			return false, nil, err
		}
	}
	env.Cloud.Settle()

	g, err := core.ProvenanceGraph(ctx, env.Store)
	if err != nil {
		return false, nil, err
	}
	if missing := g.MissingAncestors(); len(missing) > 0 {
		return false, []string{fmt.Sprintf("causal ordering: dangling ancestors %v", missing)}, nil
	}
	if !g.IsAcyclic() {
		return false, []string{"causal ordering: retrieved provenance graph is cyclic"}, nil
	}
	return true, nil, nil
}

// checkEfficientQuery loads a repository of n objects and measures the op
// cost of one targeted Q.2 query. Efficient means the cost does not grow
// with repository size — operationally, well under one op per stored object.
func checkEfficientQuery(ctx context.Context, h Harness) (bool, int64, int, error) {
	env, err := h.New(nil)
	if err != nil {
		return false, 0, 0, err
	}
	const n = 60
	// One interesting producer...
	blastRef := prov.Ref{Object: "proc/1/blast", Version: 0}
	blast := pass.FlushEvent{Ref: blastRef, Type: prov.TypeProcess, Records: []prov.Record{
		prov.NewString(blastRef, prov.AttrType, prov.TypeProcess),
		prov.NewString(blastRef, prov.AttrName, "blast"),
	}}
	if err := core.Put(ctx, env.Store, blast); err != nil {
		return false, 0, 0, err
	}
	if err := core.Put(ctx, env.Store, fileEvent("/q/hit", prov.NewInput(prov.Ref{Object: "/q/hit"}, blastRef))); err != nil {
		return false, 0, 0, err
	}
	// ...drowned in unrelated objects.
	for i := 0; i < n; i++ {
		if err := core.Put(ctx, env.Store, fileEvent(fmt.Sprintf("/q/noise%03d", i))); err != nil {
			return false, 0, 0, err
		}
	}
	if env.Pump != nil {
		if err := env.Pump(ctx); err != nil {
			return false, 0, 0, err
		}
	}
	env.Cloud.Settle()

	before := env.Cloud.Usage().TotalOps()
	outputs, err := core.CollectRefs(env.Store.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil {
		return false, 0, 0, err
	}
	if len(outputs) != 1 || outputs[0].Object != "/q/hit" {
		return false, 0, 0, fmt.Errorf("query returned wrong outputs: %v", outputs)
	}
	ops := env.Cloud.Usage().TotalOps() - before
	return ops < n/2, ops, n + 2, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '/' || r == '-' {
			out = append(out, '_')
			continue
		}
		out = append(out, r)
	}
	return string(out)
}
