package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a small passbench/v1 report carrying one or two rows of every
// gated section.
const fixture = `{
 "schema": "passbench/v1", "scale": 0.02, "seed": 2009, "tool": "softmean",
 "table2": {"Rows": [{"Arch": "s3", "ProvOps": 338}, {"Arch": "s3+sdb", "ProvOps": 988}]},
 "table3": {"Rows": [{"Query": "Q.1", "Arch": "S3", "Ops": 933, "Results": 2686}]},
 "dataset": {"Objects": 594, "Transients": 2092},
 "retry": {"s3": {"attempts": 932, "retries": 0, "exhausted": 0}},
 "load": {"tenants": 2, "writers": 2, "batches": 40, "seed": 2009,
  "runs": [{"arch": "s3", "shards": 4, "events": 227, "write_ops": 160, "throughput_eps": 391.5}]},
 "rebalance": {"writers": 4, "batches": 60, "seed": 2009, "shards": 4, "hot_fraction": 0.8,
  "runs": [{"arch": "s3", "action": "split", "post_hot_share": 0.3625, "mig_ops": 268, "mig_usd": 0.000908}]},
 "sharded": {"rows": [{"arch": "s3+sdb", "shards": 4, "prov_ops": 990,
  "queries": [{"query": "Q.2", "ops": 16, "results": 12, "usd": 0.0061}],
  "verify_ops": 2700, "verify_usd": 0.0031, "verify_clean": true}]},
 "replay": {"rows": [{"arch": "s3", "shards": 1, "compared": 594, "divergences": 0,
  "extract_ops": 3284, "replay_ops": 980, "replay_usd": 0.0178}]}
}`

// edited returns the fixture with edit applied to its decoded form.
func edited(t *testing.T, edit func(rep obj)) string {
	t.Helper()
	var rep obj
	if err := json.Unmarshal([]byte(fixture), &rep); err != nil {
		t.Fatal(err)
	}
	edit(rep)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// firstRow digs out rep[section][list][0].
func firstRow(rep obj, section, list string) obj {
	return rep[section].(obj)[list].([]any)[0].(obj)
}

// benchdiff runs the command on two report texts.
func benchdiff(t *testing.T, oldText, newText string, flags ...string) (code int, out string) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")}
	for i, text := range []string{oldText, newText} {
		if err := os.WriteFile(paths[i], []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code = run(append(flags, paths...), &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestIdenticalReportsPass(t *testing.T) {
	code, out := benchdiff(t, fixture, fixture)
	if code != 0 || !strings.HasSuffix(out, "benchdiff: OK\n") {
		t.Fatalf("identical reports: exit %d\n%s", code, out)
	}
	// Every gated metric keeps its name (zero-cost retry counters print
	// nothing).
	for _, metric := range []string{
		"table2/provops/s3 ", "table2/opsperevent/s3+sdb ", "table3/ops/Q.1/S3 ",
		"load/s3/x4/writeops ", "load/s3/x4/eps ", "rebalance/s3/posthotshare ", "rebalance/s3/migops ",
		"rebalance/s3/migusd ", "sharded/s3+sdb/x4/provops ", "sharded/s3+sdb/x4/verifyops ",
		"sharded/s3+sdb/x4/verifyusd ", "sharded/s3+sdb/x4/Q.2/ops ", "sharded/s3+sdb/x4/Q.2/usd ",
		"replay/s3/x1/extractops ", "replay/s3/x1/replayops ", "replay/s3/x1/replayusd ",
	} {
		if !strings.Contains(out, "\n"+metric) && !strings.HasPrefix(out, metric) {
			t.Errorf("metric %q not printed:\n%s", metric, out)
		}
	}
}

func TestRegressionsFail(t *testing.T) {
	cases := []struct {
		name string
		tol  string
		edit func(rep obj)
		code int
		want string // a line fragment the output must carry
	}{
		{"op count +1 at tol 0", "0", func(rep obj) { firstRow(rep, "table3", "Rows")["Ops"] = 934.0 },
			1, "table3/ops/Q.1/S3                        old=933      new=934      delta=+0.11%  REGRESSION"},
		{"op count +1 within tol", "0.01", func(rep obj) { firstRow(rep, "table3", "Rows")["Ops"] = 934.0 }, 0, "delta=+0.11%  ok"},
		{"results changed", "0.5", func(rep obj) { firstRow(rep, "table3", "Rows")["Results"] = 2685.0 },
			1, "table3/results/Q.1/S3                    results 2686 -> 2685  REGRESSION (answers changed)"},
		{"sharded query results changed", "0.5", func(rep obj) {
			firstRow(rep, "sharded", "rows")["queries"].([]any)[0].(obj)["results"] = 13.0
		}, 1, "sharded/s3+sdb/x4/Q.2                    results 12 -> 13  REGRESSION (answers changed)"},
		{"cost from zero", "0.5", func(rep obj) { rep["retry"].(obj)["s3"].(obj)["retries"] = 3.0 },
			1, "REGRESSION (new cost)"},
		{"dollar bill +1e-8 at tol 0", "0", func(rep obj) { firstRow(rep, "rebalance", "runs")["mig_usd"] = 0.00090800001 },
			1, "rebalance/s3/migusd                      old=0.000908 new=0.00090800001 delta=+1.1e-06%  REGRESSION"},
		{"throughput drop", "0.02", func(rep obj) { firstRow(rep, "load", "runs")["throughput_eps"] = 300.0 },
			1, "load/s3/x4/eps"},
		{"offered workload changed", "0.5", func(rep obj) { firstRow(rep, "load", "runs")["events"] = 228.0 },
			1, "events 227 -> 228  REGRESSION (offered workload changed)"},
		{"hot shard no longer split", "0.5", func(rep obj) { firstRow(rep, "rebalance", "runs")["action"] = "none" },
			1, "REGRESSION (hot shard no longer detected)"},
		{"namespace no longer clean", "0.5", func(rep obj) { firstRow(rep, "sharded", "rows")["verify_clean"] = false },
			1, "REGRESSION (namespace no longer verifies clean)"},
		{"replay diverges", "0.5", func(rep obj) { firstRow(rep, "replay", "rows")["divergences"] = 2.0 },
			1, "divergences 2  REGRESSION"},
		{"row vanished", "0.5", func(rep obj) {
			t2 := rep["table2"].(obj)
			t2["Rows"] = t2["Rows"].([]any)[:1]
		}, 1, "table2/s3+sdb                            missing in new report  REGRESSION"},
		{"load settings differ", "0", func(rep obj) {
			rep["load"].(obj)["writers"] = 3.0
			firstRow(rep, "load", "runs")["write_ops"] = 999.0
		}, 0, "benchdiff: load configs not comparable (writers 2 vs 3); skipping load gate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := benchdiff(t, fixture, edited(t, tc.edit), "-tol", tc.tol)
			if code != tc.code || !strings.Contains(out, tc.want) {
				t.Fatalf("exit %d (want %d), output lacks %q:\n%s", code, tc.code, tc.want, out)
			}
		})
	}
}

// TestVanishedSectionFails: a section the old report carries and the new
// one lacks means its gate silently disabled itself — a regression for
// every section, never a skip. The reverse (a section newly appearing) is
// the seeding case and passes.
func TestVanishedSectionFails(t *testing.T) {
	for _, s := range sections {
		without := edited(t, func(rep obj) { delete(rep, s.name) })
		code, out := benchdiff(t, fixture, without)
		if code != 1 || !strings.Contains(out, s.name+"/(all)") {
			t.Errorf("%s vanished: exit %d\n%s", s.name, code, out)
		}
		if code, out := benchdiff(t, without, fixture); code != 0 {
			t.Errorf("%s newly appearing: exit %d\n%s", s.name, code, out)
		}
	}
	if len(sections) != 7 {
		t.Fatalf("%d gated sections, want 7", len(sections))
	}
}

func TestIncomparableBaselinesSkip(t *testing.T) {
	for _, edit := range []func(rep obj){
		func(rep obj) { rep["scale"] = 0.1 },
		func(rep obj) { rep["seed"] = 7.0 },
	} {
		worse := edited(t, func(rep obj) {
			edit(rep)
			firstRow(rep, "table3", "Rows")["Ops"] = 5000.0
		})
		code, out := benchdiff(t, fixture, worse)
		if code != 0 || !strings.Contains(out, "baselines not comparable") {
			t.Fatalf("exit %d\n%s", code, out)
		}
	}
}

func TestBadInputFails(t *testing.T) {
	if code, _ := benchdiff(t, fixture, `{"schema": "other"}`); code != 1 {
		t.Fatalf("unknown schema: exit %d, want 1", code)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"only-one.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("usage error: exit %d, want 1", code)
	}
}
