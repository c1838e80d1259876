// Command passctl drives a provenance-aware cloud client from a small
// command script (file or stdin), using only the public passcloud API. The
// cloud is simulated in-process, so one script is one session.
//
//	passctl -arch s3+sdb+sqs script.txt
//	echo 'ingest /d hello
//	      exec tool
//	      read tool /d
//	      write tool /out result
//	      close tool /out
//	      sync
//	      get /out
//	      outputs tool' | passctl
//
// Commands:
//
//	ingest PATH TEXT...          store a pre-existing data set
//	exec NAME [ARGV...]          start a process (handle = NAME)
//	spawn PARENT NAME [ARGV...]  start a child process
//	read NAME PATH               process reads a file
//	write NAME PATH TEXT...      process replaces a file
//	append NAME PATH TEXT...     process extends a file
//	derive NAME PATH             write NAME's registered tool output (replayable)
//	close NAME PATH              persist the file + provenance
//	pipe FROM TO                 connect two processes
//	exit NAME                    end a process
//	sync                         drain everything to the cloud
//	settle                       let replication converge
//	get PATH                     fetch data + verified provenance
//	prov PATH VERSION            fetch one version's provenance
//	outputs TOOL                 Q.2: files written by TOOL
//	descendants TOOL             Q.3: everything derived from TOOL's outputs
//	ancestors PATH               full ancestry of PATH's current version
//	query [flags]                composable Query API v2 (see below)
//	verify                       tamper-evidence audit of the whole namespace
//	verify PATH                  verify one object's hash-chained lineage
//	replay                       re-execute every current lineage and diff (divergence oracle)
//	replay PATH                  replay one object's lineage subgraph
//	reshard OP [ARGS]            elastic resharding (sharded sessions; see below)
//	usage                        the cloud bill so far
//
// The -shards N flag routes the session across N sharded namespaces and
// -tenant KEY bills it under a tenant key; `verify` then audits every
// shard and composes the per-shard Merkle roots into the namespace root.
//
// The reshard command drives the live migration controller, as a script
// command and as a subcommand (`passctl -shards 4 reshard -script
// setup.txt split 0 1`):
//
//	reshard status               journal phase, ring epoch, op shares
//	reshard baseline             sample the per-shard meters for detection
//	reshard split SRC [DST]      shed half of SRC's ring points (verified cutover)
//	reshard merge SRC [DST]      drain all of SRC's ring points
//	reshard rebalance            one reconciliation pass (auto split if hot)
//	reshard recover              complete an interrupted migration
//
// The query command drives the composable v2 API, both as a script command
// and as a subcommand (`passctl query -script setup.txt -tool blast`; the
// setup script populates the in-process cloud first):
//
//	query -tool blast -type file          Q.2 as a descriptor
//	query -attr argv=-x -prefix /out/     attribute + ref-prefix filters
//	query -tool blast -descendants        Q.3 as a descriptor
//	query -ancestors -ref /out/a:0        ancestry walk
//	query -limit 2                        paginate (prints a resume cursor)
//	query -limit 2 -cursor last           resume the previous query's cursor
//	query -explain -tool blast            predicted cost plan, no execution
//	query -json -tool blast               machine-readable entries + cursor
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"passcloud"
)

func main() {
	archName := flag.String("arch", "s3+sdb+sqs", "architecture: s3 | s3+sdb | s3+sdb+sqs")
	seed := flag.Int64("seed", 2009, "random seed")
	delay := flag.Duration("delay", 0, "eventual-consistency delay")
	shards := flag.Int("shards", 0, "shard the store across this many namespaces (0 = unsharded)")
	tenant := flag.String("tenant", "", "bill this session under a tenant key")
	flag.Parse()

	arch, err := parseArch(*archName)
	if err != nil {
		log.Fatal(err)
	}
	client, err := passcloud.New(passcloud.Options{
		Architecture:     arch,
		Seed:             *seed,
		ConsistencyDelay: *delay,
		Shards:           *shards,
		Tenant:           *tenant,
	})
	if err != nil {
		log.Fatal(err)
	}

	args := flag.Args()
	if len(args) > 0 && args[0] == "query" {
		// Subcommand form: populate from -script (or stdin), then run the
		// one query end to end.
		if err := runQuerySubcommand(client, args[1:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(args) > 0 && args[0] == "reshard" {
		if err := runReshardSubcommand(client, args[1:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	if err := run(client, in, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runReshardSubcommand mirrors the query subcommand: populate from
// -script (or stdin), then run one reshard operation.
func runReshardSubcommand(client *passcloud.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reshard", flag.ContinueOnError)
	script := fs.String("script", "", "setup script to run first (default: stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	if err := run(client, in, io.Discard); err != nil {
		return err
	}
	return execReshard(client, fs.Args(), out)
}

// execReshard runs one reshard operation: status, baseline, split,
// merge, rebalance or recover.
func execReshard(client *passcloud.Client, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("reshard: want status | baseline | split SRC [DST] | merge SRC [DST] | rebalance | recover")
	}
	rs, err := client.Resharder()
	if err != nil {
		return err
	}
	pair := func() (int, int, error) {
		if len(args) < 2 {
			return 0, 0, fmt.Errorf("reshard %s needs a source shard", args[0])
		}
		src, err := strconv.Atoi(args[1])
		if err != nil {
			return 0, 0, fmt.Errorf("reshard: bad source shard %q", args[1])
		}
		dst := -1 // the controller picks the coldest shard
		if len(args) > 2 {
			if dst, err = strconv.Atoi(args[2]); err != nil {
				return 0, 0, fmt.Errorf("reshard: bad destination shard %q", args[2])
			}
		}
		return src, dst, nil
	}
	ctx := context.Background()
	switch args[0] {
	case "status":
		st := rs.Status()
		fmt.Fprintf(out, "phase %s, ring epoch %d, migrating %v\n", st.Phase, st.Epoch, st.Migrating)
		for i, s := range st.Shares {
			fmt.Fprintf(out, "  shard %d: %4.1f%% of ops since baseline\n", i, 100*s)
		}
		if st.Shares == nil {
			fmt.Fprintln(out, "  (no baseline sampled)")
		}
	case "baseline":
		rs.SampleBaseline()
		fmt.Fprintln(out, "baseline sampled")
	case "split":
		src, dst, err := pair()
		if err != nil {
			return err
		}
		rep, err := rs.Split(ctx, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
	case "merge":
		src, dst, err := pair()
		if err != nil {
			return err
		}
		rep, err := rs.Merge(ctx, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
	case "rebalance":
		rep, err := rs.Rebalance(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
	case "recover":
		phase, err := rs.Recover(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recovered from phase %s\n", phase)
	default:
		return fmt.Errorf("reshard: unknown operation %q", args[0])
	}
	return nil
}

// runQuerySubcommand parses query flags (plus -script for the setup
// commands) and executes one query against the populated client.
func runQuerySubcommand(client *passcloud.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	script := fs.String("script", "", "setup script to run first (default: stdin)")
	opts, err := parseQueryFlags(fs, args)
	if err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	state := &session{}
	if err := runSession(client, in, out, state); err != nil {
		return err
	}
	return execQuery(client, opts, state, out)
}

func parseArch(name string) (passcloud.Architecture, error) {
	switch strings.ToLower(name) {
	case "s3":
		return passcloud.S3Only, nil
	case "s3+sdb", "s3+simpledb":
		return passcloud.S3SimpleDB, nil
	case "s3+sdb+sqs", "s3+simpledb+sqs":
		return passcloud.S3SimpleDBSQS, nil
	default:
		return 0, fmt.Errorf("passctl: unknown architecture %q", name)
	}
}

// session is the interpreter state that survives across script lines: the
// process handles and the last query's resume cursor (for `-cursor last`).
type session struct {
	procs      map[string]*passcloud.Process
	lastCursor string
}

// run interprets the script with a fresh session.
func run(client *passcloud.Client, in io.Reader, out io.Writer) error {
	return runSession(client, in, out, &session{})
}

// runSession interprets the script.
func runSession(client *passcloud.Client, in io.Reader, out io.Writer, state *session) error {
	ctx := context.Background()
	if state.procs == nil {
		state.procs = make(map[string]*passcloud.Process)
	}
	procs := state.procs
	scanner := bufio.NewScanner(in)
	lineNo := 0

	proc := func(name string) (*passcloud.Process, error) {
		p, ok := procs[name]
		if !ok {
			return nil, fmt.Errorf("unknown process %q", name)
		}
		return p, nil
	}

	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]

		fail := func(err error) error {
			return fmt.Errorf("line %d (%s): %w", lineNo, cmd, err)
		}
		need := func(n int) error {
			if len(args) < n {
				return fmt.Errorf("line %d: %s needs %d arguments", lineNo, cmd, n)
			}
			return nil
		}

		switch cmd {
		case "ingest":
			if err := need(2); err != nil {
				return err
			}
			if err := client.Ingest(ctx, args[0], []byte(strings.Join(args[1:], " "))); err != nil {
				return fail(err)
			}
		case "exec":
			if err := need(1); err != nil {
				return err
			}
			procs[args[0]] = client.Exec(nil, passcloud.ProcessSpec{Name: args[0], Argv: args})
		case "spawn":
			if err := need(2); err != nil {
				return err
			}
			parent, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			procs[args[1]] = client.Exec(parent, passcloud.ProcessSpec{Name: args[1], Argv: args[1:]})
		case "read":
			if err := need(2); err != nil {
				return err
			}
			p, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			if err := p.Read(args[1]); err != nil {
				return fail(err)
			}
		case "write", "append":
			if err := need(3); err != nil {
				return err
			}
			p, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			data := []byte(strings.Join(args[2:], " "))
			if cmd == "write" {
				err = p.Write(args[1], data)
			} else {
				err = p.Append(args[1], data)
			}
			if err != nil {
				return fail(err)
			}
		case "derive":
			if err := need(2); err != nil {
				return err
			}
			p, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			if err := p.WriteDerived(args[1]); err != nil {
				return fail(err)
			}
		case "close":
			if err := need(2); err != nil {
				return err
			}
			p, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			if err := p.Close(ctx, args[1]); err != nil {
				return fail(err)
			}
		case "pipe":
			if err := need(2); err != nil {
				return err
			}
			from, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			to, err := proc(args[1])
			if err != nil {
				return fail(err)
			}
			if err := from.PipeTo(to); err != nil {
				return fail(err)
			}
		case "exit":
			if err := need(1); err != nil {
				return err
			}
			p, err := proc(args[0])
			if err != nil {
				return fail(err)
			}
			p.Exit()
		case "sync":
			if err := client.Sync(ctx); err != nil {
				return fail(err)
			}
		case "settle":
			client.Settle()
		case "get":
			if err := need(1); err != nil {
				return err
			}
			obj, err := client.Get(ctx, args[0])
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(out, "%s = %q\n", obj.Ref, obj.Data)
			for _, r := range obj.Records {
				fmt.Fprintf(out, "  %s = %s\n", r.Attr, truncate(r.Value, 60))
			}
		case "prov":
			if err := need(2); err != nil {
				return err
			}
			version, err := strconv.Atoi(args[1])
			if err != nil {
				return fail(err)
			}
			records, err := client.Provenance(ctx, passcloud.Ref{Object: args[0], Version: version})
			if err != nil {
				return fail(err)
			}
			for _, r := range records {
				fmt.Fprintf(out, "  %s = %s\n", r.Attr, truncate(r.Value, 60))
			}
		case "outputs", "descendants", "ancestors":
			if err := need(1); err != nil {
				return err
			}
			spec := passcloud.QuerySpec{Tool: args[0], Type: "file", RefsOnly: true}
			switch cmd {
			case "descendants":
				spec.Direction = passcloud.TraverseDescendants
			case "ancestors":
				obj, err := client.Get(ctx, args[0])
				if err != nil {
					return fail(err)
				}
				spec = passcloud.QuerySpec{Refs: []passcloud.Ref{obj.Ref}, Direction: passcloud.TraverseAncestors, RefsOnly: true}
			}
			res, err := client.Search(ctx, spec)
			if err != nil {
				return fail(err)
			}
			printRefs(out, res.Entries)
		case "query":
			fs := flag.NewFlagSet("query", flag.ContinueOnError)
			opts, err := parseQueryFlags(fs, args)
			if err != nil {
				return fail(err)
			}
			if err := execQuery(client, opts, state, out); err != nil {
				return fail(err)
			}
		case "reshard":
			if err := execReshard(client, args, out); err != nil {
				return fail(err)
			}
		case "verify":
			if len(args) == 0 {
				rep, err := client.VerifyAll(ctx)
				if err != nil {
					return fail(err)
				}
				printVerifyReport(out, rep)
				break
			}
			rep, err := client.VerifyLineage(ctx, args[0])
			if err != nil {
				return fail(err)
			}
			status := "intact"
			if !rep.Clean() {
				status = "DIVERGED"
			}
			fmt.Fprintf(out, "%s: %s (%d versions, shard %d)\n", rep.Object, status, rep.Versions, rep.Shard)
			for _, d := range rep.Divergences {
				fmt.Fprintf(out, "  %s\n", d)
			}
		case "replay":
			var rep *passcloud.ReplayReport
			var err error
			if len(args) == 0 {
				rep, err = client.ReplayAll(ctx)
			} else {
				rep, err = client.Replay(ctx, args[0])
			}
			if err != nil {
				return fail(err)
			}
			printReplayReport(out, rep)
		case "usage":
			u := client.Usage()
			fmt.Fprintf(out, "ops: s3=%d sdb=%d sqs=%d | stored: %d bytes | in/out: %d/%d | $%.4f\n",
				u.S3Ops, u.SimpleDBOps, u.SQSOps,
				u.S3Stored+u.SimpleDBStored+u.SQSStored,
				u.TransferredIn, u.TransferredOut, u.USD)
		default:
			return fmt.Errorf("line %d: unknown command %q", lineNo, cmd)
		}
	}
	return scanner.Err()
}

// printReplayReport renders one replay run: coverage counters, the
// sandbox re-execution bill, and every divergence.
func printReplayReport(out io.Writer, rep *passcloud.ReplayReport) {
	status := "clean"
	if !rep.Clean() {
		status = "DIVERGED"
	}
	fmt.Fprintf(out, "replay: %s — %d derived, %d sources, %d processes, %d compared ($%.4f sandbox)\n",
		status, rep.Subjects, rep.Sources, rep.Processes, rep.Compared, rep.Usage.USD)
	for _, d := range rep.Divergences {
		fmt.Fprintf(out, "  %s\n", d)
	}
}

// printVerifyReport renders a whole-namespace verification: one line per
// shard, the composed namespace root, and every divergence.
func printVerifyReport(out io.Writer, rep *passcloud.VerifyReport) {
	for _, s := range rep.Shards {
		status := "clean"
		if !s.Clean() {
			status = "DIVERGED"
		}
		root := "root matches checkpoint"
		switch {
		case s.MultiWriter:
			root = "multi-writer (root check per chain)"
		case s.CheckpointRoot == "":
			root = "no checkpoint"
		case s.Root != s.CheckpointRoot:
			root = "ROOT MISMATCH"
		}
		fmt.Fprintf(out, "shard %d: %s — %d subjects, %d records, %s\n",
			s.Shard, status, s.Subjects, s.Records, root)
	}
	fmt.Fprintf(out, "namespace root %s\n", truncate(rep.NamespaceRoot, 16))
	if rep.Clean() {
		fmt.Fprintln(out, "verification: OK")
		return
	}
	for _, d := range rep.Divergences() {
		fmt.Fprintf(out, "  %s\n", d)
	}
	fmt.Fprintln(out, "verification: FAILED")
}

func printRefs(out io.Writer, entries []passcloud.ProvenanceEntry) {
	if len(entries) == 0 {
		fmt.Fprintln(out, "  (none)")
		return
	}
	for _, e := range entries {
		fmt.Fprintf(out, "  %s\n", e.Ref)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// queryOpts is one parsed query invocation.
type queryOpts struct {
	spec    passcloud.QuerySpec
	explain bool
	jsonOut bool
	full    bool
}

// attrFlags collects repeatable -attr k=v pairs.
type attrFlags map[string]string

func (a attrFlags) String() string { return fmt.Sprintf("%v", map[string]string(a)) }

func (a attrFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("-attr wants k=v, got %q", v)
	}
	a[k] = val
	return nil
}

// parseQueryFlags registers the query flag set on fs and parses args.
func parseQueryFlags(fs *flag.FlagSet, args []string) (queryOpts, error) {
	var o queryOpts
	attrs := attrFlags{}
	fs.StringVar(&o.spec.Tool, "tool", "", "filter: outputs of this tool (Q.2 when combined with -type file)")
	fs.StringVar(&o.spec.Type, "type", "", "filter: object type (file | process | pipe)")
	fs.Var(attrs, "attr", "filter: attribute k=v (repeatable)")
	fs.StringVar(&o.spec.RefPrefix, "prefix", "", "filter: object:version prefix")
	ref := fs.String("ref", "", "filter: exact object:version seed (repeatable via commas)")
	descendants := fs.Bool("descendants", false, "traverse: everything derived from the matches (Q.3 shape)")
	ancestors := fs.Bool("ancestors", false, "traverse: full ancestry of the matches")
	includeSeeds := fs.Bool("include-seeds", false, "traversal results may include matched seeds")
	fs.IntVar(&o.spec.Depth, "depth", 0, "traversal depth limit (0 = unlimited)")
	fs.IntVar(&o.spec.Limit, "limit", 0, "page size (0 = everything)")
	fs.StringVar(&o.spec.Cursor, "cursor", "", "resume cursor; \"last\" reuses the previous query's")
	fs.BoolVar(&o.full, "full", false, "include provenance records in the results")
	fs.BoolVar(&o.explain, "explain", false, "print the predicted cost plan instead of running")
	fs.BoolVar(&o.jsonOut, "json", false, "machine-readable output")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if len(fs.Args()) > 0 {
		return o, fmt.Errorf("query: unexpected arguments %v", fs.Args())
	}
	if *descendants && *ancestors {
		return o, fmt.Errorf("query: -descendants and -ancestors are mutually exclusive")
	}
	if *descendants {
		o.spec.Direction = passcloud.TraverseDescendants
	}
	if *ancestors {
		o.spec.Direction = passcloud.TraverseAncestors
	}
	o.spec.IncludeSeeds = *includeSeeds
	if len(attrs) > 0 {
		o.spec.Attrs = attrs
	}
	if *ref != "" {
		for _, rs := range strings.Split(*ref, ",") {
			// The version is the digits after the LAST colon, so object
			// names may themselves contain colons.
			i := strings.LastIndexByte(rs, ':')
			if i <= 0 {
				return o, fmt.Errorf("query: malformed -ref %q (want object:version)", rs)
			}
			v, err := strconv.Atoi(rs[i+1:])
			if err != nil {
				return o, fmt.Errorf("query: malformed -ref version in %q", rs)
			}
			o.spec.Refs = append(o.spec.Refs, passcloud.Ref{Object: rs[:i], Version: v})
		}
	}
	o.spec.RefsOnly = !o.full
	return o, nil
}

// queryJSON is the -json output shape.
type queryJSON struct {
	Entries []jsonEntry          `json:"entries,omitempty"`
	Cursor  string               `json:"cursor,omitempty"`
	Plan    *passcloud.QueryPlan `json:"plan,omitempty"`
}

type jsonEntry struct {
	Ref     string              `json:"ref"`
	Records map[string][]string `json:"records,omitempty"`
}

// execQuery runs (or explains) one parsed query against the client.
func execQuery(client *passcloud.Client, o queryOpts, state *session, out io.Writer) error {
	if o.spec.Cursor == "last" {
		if state.lastCursor == "" {
			// The previous page sequence is complete (or none started):
			// resuming past the end yields nothing rather than wrapping
			// around to a fresh first page.
			fmt.Fprintln(out, "  (none)")
			return nil
		}
		o.spec.Cursor = state.lastCursor
	}
	if o.explain {
		plan, err := client.Explain(o.spec)
		if err != nil {
			return err
		}
		if o.jsonOut {
			return json.NewEncoder(out).Encode(queryJSON{Plan: &plan})
		}
		fmt.Fprintln(out, plan)
		return nil
	}
	res, err := client.Search(context.Background(), o.spec)
	if err != nil {
		return err
	}
	state.lastCursor = res.Cursor
	if o.jsonOut {
		rep := queryJSON{Cursor: res.Cursor}
		for _, e := range res.Entries {
			je := jsonEntry{Ref: e.Ref.String()}
			if len(e.Records) > 0 {
				je.Records = make(map[string][]string)
				for _, r := range e.Records {
					je.Records[r.Attr] = append(je.Records[r.Attr], r.Value)
				}
			}
			rep.Entries = append(rep.Entries, je)
		}
		return json.NewEncoder(out).Encode(rep)
	}
	if len(res.Entries) == 0 {
		fmt.Fprintln(out, "  (none)")
	}
	for _, e := range res.Entries {
		fmt.Fprintf(out, "  %s\n", e.Ref)
		for _, r := range e.Records {
			fmt.Fprintf(out, "    %s = %s\n", r.Attr, truncate(r.Value, 60))
		}
	}
	if res.Cursor != "" {
		fmt.Fprintf(out, "  cursor %s\n", res.Cursor)
	}
	return nil
}
