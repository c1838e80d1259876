// Command benchdiff compares two passbench -json reports (the BENCH_<sha>
// trajectory artifacts CI persists) and fails when the new run regresses
// cloud-operation costs: write-path cloud ops per event (Table 2), the
// Table 3 query costs per architecture and query class, retry overhead,
// the scale-out load matrix, the rebalance bench, the sharded cost matrix
// with its verification-cost columns, and the replay cost matrix.
//
//	benchdiff old.json new.json            # fail on any ops regression
//	benchdiff -tol 0.02 old.json new.json  # allow 2% drift
//
// Every gated section is one descriptor in the sections table below — where
// its rows live in the report, what identifies a row, and how each field
// gates — and one loop runs them all, so the structural rules hold for
// every section alike: a section or row the old report carries and the new
// one lacks is a regression (the gate would otherwise disable itself
// exactly when the wiring broke), while a section newly appearing is the
// seeding case and passes.
//
// Reports with different scale/seed/tool are not comparable; benchdiff
// then exits 0 with a notice so a deliberate recalibration does not wedge
// CI (the new artifact becomes the next baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// obj is one decoded JSON object of a passbench/v1 report.
type obj = map[string]any

// kind says how a field gates.
type kind int

const (
	// growth: an integer cost. The new value may exceed the old by at
	// most -tol; a cost appearing from zero always fails.
	growth kind = iota
	// growthF: a fractional cost (a share, a dollar bill), gated like
	// growth once the old report carries a nonzero value — reports that
	// predate the field decode it as zero, so a seeding run passes.
	growthF
	// dropF: a benefit (throughput): the new value may fall short of the
	// old by at most -tol.
	dropF
	// same: an identity. Any change fails — or, when want is set, only
	// leaving want does.
	same
	// holds: the new value must equal want whatever the old one was.
	holds
)

// field is one gated leaf of a row.
type field struct {
	json   string // key in the row object
	name   string // metric-name component; "" gates under the row's own name
	kind   kind
	format string // growthF, dropF: how a value prints
	want   any    // same, holds
	why    string // same, holds: what a failure means
}

// section describes one gated section of the report.
type section struct {
	// name is the section's key in the report and its metrics' prefix.
	name string
	// rows is the key of the row list inside the section; "" means the
	// section itself is a map of rows keyed by row name.
	rows string
	// key lists the fields identifying a row, in printed order; a shard
	// count prints as xN.
	key []string
	// fieldFirst prints metrics as section/field/row rather than
	// section/row/field.
	fieldFirst bool
	// settings are section-level values that must match for the two
	// sides to describe the same offered workload; otherwise the gate
	// is skipped with a notice.
	settings []string
	fields   []field
	// sub describes rows nested inside each row.
	sub *section
	// note prints informational lines after the section's rows.
	note func(d *differ, oldRep, newRep obj)
}

var sections = []section{
	// Write path: same scale and seed means the same event stream, so raw
	// provenance ops compare directly.
	{name: "table2", rows: "Rows", key: []string{"Arch"}, fieldFirst: true,
		fields: []field{{json: "ProvOps", name: "provops"}},
		note:   opsPerEvent},
	// Query path, plus a result-count identity: a faster query returning
	// different answers is not an improvement.
	{name: "table3", rows: "Rows", key: []string{"Query", "Arch"}, fieldFirst: true,
		fields: []field{
			{json: "Ops", name: "ops"},
			{json: "Results", name: "results", kind: same, why: "answers changed"},
		}},
	// Retry overhead: the simulated region injects no faults during a
	// benchmark run, so retries or exhaustions appearing (or growing) mean
	// the write path started misclassifying errors or re-running work.
	{name: "retry", fieldFirst: true,
		fields: []field{{json: "retries", name: "retries"}, {json: "exhausted", name: "exhausted"}}},
	// Scale-out load matrix. The WAL architecture's op totals can drift a
	// few ops with queue interleaving; -tol absorbs it.
	{name: "load", rows: "runs", key: []string{"arch", "shards"},
		settings: []string{"tenants", "writers", "batches", "seed"},
		fields: []field{
			{json: "events", kind: same, why: "offered workload changed"},
			{json: "write_ops", name: "writeops"},
			{json: "throughput_eps", name: "eps", kind: dropF, format: "%-8.0f"},
		}},
	// Elastic resharding: the controller must keep splitting hot shards,
	// the post-split hot share must not creep back up, and the migration's
	// own cost must not regress.
	{name: "rebalance", rows: "runs", key: []string{"arch"},
		settings: []string{"writers", "batches", "seed", "shards", "hot_fraction"},
		fields: []field{
			{json: "action", kind: same, want: "split", why: "hot shard no longer detected"},
			{json: "post_hot_share", name: "posthotshare", kind: growthF, format: "%-8.3f"},
			{json: "mig_ops", name: "migops"},
			{json: "mig_usd", name: "migusd", kind: growthF, format: "$%-9.6f"},
		}},
	// Sharded cost matrix and the cost of a full tamper-evidence audit.
	{name: "sharded", rows: "rows", key: []string{"arch", "shards"},
		fields: []field{
			{json: "prov_ops", name: "provops"},
			{json: "verify_ops", name: "verifyops"},
			{json: "verify_clean", kind: holds, want: true, why: "namespace no longer verifies clean"},
			{json: "verify_usd", name: "verifyusd", kind: growthF, format: "$%-7.4f"},
		},
		sub: &section{rows: "queries", key: []string{"query"},
			fields: []field{
				{json: "ops", name: "ops"},
				{json: "usd", name: "usd", kind: growthF, format: "$%-9.6f"},
				{json: "results", kind: same, why: "answers changed"},
			}}},
	// Replay cost matrix: the divergence oracle's bill. The harness replays
	// its own faithful capture, so any divergence is a correctness failure,
	// and a change in coverage means the audit silently shrank or grew.
	{name: "replay", rows: "rows", key: []string{"arch", "shards"},
		fields: []field{
			{json: "extract_ops", name: "extractops"},
			{json: "replay_ops", name: "replayops"},
			{json: "divergences", kind: holds, want: 0.0, why: "a faithful capture diverged on replay"},
			{json: "compared", kind: same, why: "audit coverage changed"},
			{json: "replay_usd", name: "replayusd", kind: growthF, format: "$%-7.4f"},
		}},
}

// differ accumulates one comparison's output and verdict.
type differ struct {
	out    io.Writer
	tol    float64
	failed bool
}

// regress prints one failing line — what was seen and, when it needs
// saying, why that is a regression — and records the failure.
func (d *differ) regress(metric, what, why string) {
	if why != "" {
		why = " (" + why + ")"
	}
	fmt.Fprintf(d.out, "%-40s %s  REGRESSION%s\n", metric, what, why)
	d.failed = true
}

// ratio gates and prints a relative change: worse is the fractional move
// in the bad direction, sign (+1 for costs, -1 for benefits) turns it back
// into the change shown. A flagged line must show the move its verdict
// rests on, however small: fractional values print exactly (%v is the
// shortest spelling that reads back) rather than in the field's rounded
// format, and a delta that rounds to zero at two decimals prints to three
// significant digits.
func (d *differ) ratio(metric, format string, oldV, newV any, worse, sign float64) {
	status, delta := "ok", fmt.Sprintf("%+.2f%%", 100*sign*worse)
	if worse > d.tol {
		status = "REGRESSION"
		d.failed = true
		if _, fractional := oldV.(float64); fractional {
			format = "%v"
		}
		if strings.Trim(delta, "+-0.%") == "" {
			delta = fmt.Sprintf("%+.3g%%", 100*sign*worse)
		}
	}
	fmt.Fprintf(d.out, "%-40s old="+format+" new="+format+" delta=%s  %s\n", metric, oldV, newV, delta, status)
}

// gate applies one field's rule to a pair of rows.
func (d *differ) gate(metric string, f field, oldRow, newRow obj) {
	oldV, newV := oldRow[f.json], newRow[f.json]
	o, n := num(oldV), num(newV)
	switch f.kind {
	case growth:
		switch {
		case o > 0:
			d.ratio(metric, "%-8d", int64(o), int64(n), (n-o)/o, +1)
		case n > 0: // a metric appearing from zero is still a cost regression
			d.regress(metric, fmt.Sprintf("old=%-8d new=%-8d", int64(o), int64(n)), "new cost")
		}
	case growthF:
		if o > 0 {
			d.ratio(metric, f.format, o, n, (n-o)/o, +1)
		}
	case dropF:
		if o > 0 {
			d.ratio(metric, f.format, o, n, (o-n)/o, -1)
		}
	case same:
		if oldV != newV && (f.want == nil || oldV == f.want) {
			d.regress(metric, fmt.Sprintf("%s %s -> %s", strings.ToLower(f.json), show(oldV), show(newV)), f.why)
		}
	case holds:
		if newV != f.want {
			d.regress(metric, f.json+" "+show(newV), f.why)
		}
	}
}

// compare gates the rows s describes inside a pair of containers — the
// two sections, or for a sub-section two parent rows — under prefix.
func (d *differ) compare(prefix string, s section, oldC, newC obj) {
	newRows := map[string]obj{}
	for _, r := range rowsOf(s, newC) {
		newRows[r.name] = r.obj
	}
	for _, r := range rowsOf(s, oldC) {
		row := prefix + "/" + r.name
		nr, ok := newRows[r.name]
		if !ok {
			d.regress(row, "missing in new report", "")
			continue
		}
		for _, f := range s.fields {
			metric := row
			switch {
			case f.name != "" && s.fieldFirst:
				metric = prefix + "/" + f.name + "/" + r.name
			case f.name != "":
				metric = row + "/" + f.name
			}
			d.gate(metric, f, r.obj, nr)
		}
		if s.sub != nil {
			d.compare(row, *s.sub, r.obj, nr)
		}
	}
}

// namedRow is one row with the name its key fields spell.
type namedRow struct {
	name string
	obj  obj
}

// rowsOf extracts s's rows from a container, in report order (map-shaped
// sections: sorted by name).
func rowsOf(s section, c obj) []namedRow {
	var out []namedRow
	if s.rows == "" {
		for name, v := range c {
			if row, ok := v.(obj); ok {
				out = append(out, namedRow{name, row})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
		return out
	}
	list, _ := c[s.rows].([]any)
	for _, v := range list {
		row, ok := v.(obj)
		if !ok {
			continue
		}
		parts := make([]string, len(s.key))
		for i, k := range s.key {
			parts[i] = show(row[k])
			if k == "shards" {
				parts[i] = "x" + parts[i]
			}
		}
		out = append(out, namedRow{strings.Join(parts, "/"), row})
	}
	return out
}

// num reads a JSON number (anything else is zero).
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// show renders a JSON leaf; integral numbers print without an exponent.
func show(v any) string {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return fmt.Sprint(v)
}

// opsPerEvent prints Table 2's per-event ratio for the trajectory log:
// provenance ops over persistent objects plus transient versions.
func opsPerEvent(d *differ, oldRep, newRep obj) {
	events := func(rep obj) float64 {
		ds, _ := rep["dataset"].(obj)
		return num(ds["Objects"]) + num(ds["Transients"])
	}
	nev := events(newRep)
	if events(oldRep) <= 0 || nev <= 0 {
		return
	}
	t2, _ := newRep["table2"].(obj)
	for _, r := range rowsOf(section{rows: "Rows", key: []string{"Arch"}}, t2) {
		fmt.Fprintf(d.out, "%-40s %.3f cloudops/event\n", "table2/opsperevent/"+r.name, num(r.obj["ProvOps"])/nev)
	}
}

func load(path string) (obj, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r obj
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r["schema"] != "passbench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, r["schema"])
	}
	return r, nil
}

// differing returns "old vs new" renderings of the settings that differ.
func differing(settings []string, oldC, newC obj) string {
	var diffs []string
	for _, k := range settings {
		if oldC[k] != newC[k] {
			diffs = append(diffs, fmt.Sprintf("%s %s vs %s", k, show(oldC[k]), show(newC[k])))
		}
	}
	return strings.Join(diffs, ", ")
}

// run is main without the process exit: it returns the exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errOut)
	tol := fs.Float64("tol", 0, "allowed fractional regression (0.02 = 2%)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(errOut, "usage: benchdiff [-tol f] old.json new.json")
		return 1
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	return diff(oldRep, newRep, *tol, out)
}

// diff compares two loaded reports and returns the exit code.
func diff(oldRep, newRep obj, tol float64, out io.Writer) int {
	if d := differing([]string{"scale", "seed", "tool"}, oldRep, newRep); d != "" {
		fmt.Fprintf(out, "benchdiff: baselines not comparable (%s); skipping\n", d)
		return 0
	}
	d := &differ{out: out, tol: tol}
	for _, s := range sections {
		oldC, _ := oldRep[s.name].(obj)
		newC, _ := newRep[s.name].(obj)
		mismatch := differing(s.settings, oldC, newC)
		switch {
		case len(oldC) == 0:
			// Nothing to hold the new report to: the seeding case.
		case len(newC) == 0:
			d.regress(s.name+"/(all)", "missing in new report", "")
		case mismatch != "":
			fmt.Fprintf(out, "benchdiff: %s configs not comparable (%s); skipping %s gate\n", s.name, mismatch, s.name)
		default:
			d.compare(s.name, s, oldC, newC)
			if s.note != nil {
				s.note(d, oldRep, newRep)
			}
		}
	}
	if d.failed {
		fmt.Fprintln(out, "benchdiff: FAIL")
		return 1
	}
	fmt.Fprintln(out, "benchdiff: OK")
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
