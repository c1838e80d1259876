// Reproducibility: the paper's third motivating scenario. "Consider the
// efforts of one group attempting to reproduce the results of another
// research group. If the reproduction does not yield identical results,
// comparing the provenance will shed insight into the differences in the
// experiment."
//
// Two groups run the "same" pipeline over the same released data set, but
// get different outputs. Diffing the stored provenance of the two results
// pinpoints the divergence: a different tool flag.
package main

import (
	"context"
	"fmt"
	"log"

	"passcloud"
)

// ctx scopes every cloud call the example makes; a real service would
// derive per-request contexts with deadlines here.
var ctx = context.Background()

// runExperiment executes one group's pipeline and returns its result path.
func runExperiment(client *passcloud.Client, group, flag string) string {
	sim := client.Exec(nil, passcloud.ProcessSpec{
		Name: "simulate",
		Argv: []string{"simulate", flag, "/public/initial-conditions.dat"},
		Env:  "GROUP=" + group,
	})
	must(sim.Read("/public/initial-conditions.dat"))
	raw := "/groups/" + group + "/raw.dat"
	must(sim.Write(raw, []byte("raw-output-"+flag)))
	must(sim.Close(ctx, raw))
	sim.Exit()

	reduce := client.Exec(nil, passcloud.ProcessSpec{
		Name: "reduce",
		Argv: []string{"reduce", "--mean", raw},
	})
	must(reduce.Read(raw))
	result := "/groups/" + group + "/result.dat"
	must(reduce.Write(result, []byte("mean-of-"+flag)))
	must(reduce.Close(ctx, result))
	reduce.Exit()
	return result
}

func main() {
	client, err := passcloud.New(passcloud.Options{
		Architecture: passcloud.S3SimpleDBSQS,
		Seed:         1234,
	})
	if err != nil {
		log.Fatal(err)
	}

	must(client.Ingest(ctx, "/public/initial-conditions.dat", []byte("IC: rho=1.0 T=270K")))

	// The original experiment and the attempted reproduction.
	original := runExperiment(client, "original", "--dt=0.001")
	replica := runExperiment(client, "replica", "--dt=0.01")

	must(client.Sync(ctx))
	client.Settle()

	a, err := client.Get(ctx, original)
	must(err)
	b, err := client.Get(ctx, replica)
	must(err)

	fmt.Printf("original result: %q\nreplica  result: %q\n\n", a.Data, b.Data)
	if string(a.Data) == string(b.Data) {
		fmt.Println("results identical; nothing to investigate")
		return
	}
	fmt.Println("results differ — comparing provenance of the two experiments")

	ancestors := func(result passcloud.Ref) []passcloud.ProvenanceEntry {
		res, err := client.Search(ctx, passcloud.QuerySpec{
			Refs: []passcloud.Ref{result}, Direction: passcloud.TraverseAncestors, RefsOnly: true,
		})
		must(err)
		return res.Entries
	}

	// Walk both ancestries, collecting each ancestor's argv records.
	argvs := func(result passcloud.Ref) map[string]string {
		out := map[string]string{}
		for _, anc := range ancestors(result) {
			records, err := client.Provenance(ctx, anc.Ref)
			must(err)
			for _, r := range records {
				if r.Attr == "argv" {
					// Key by tool name (first argv word) for comparison.
					name := r.Value
					for i := 0; i < len(name); i++ {
						if name[i] == ' ' {
							name = name[:i]
							break
						}
					}
					out[name] = r.Value
				}
			}
		}
		return out
	}
	origArgv := argvs(a.Ref)
	replArgv := argvs(b.Ref)

	for tool, cmd := range origArgv {
		if other, ok := replArgv[tool]; ok && other != cmd {
			fmt.Printf("\ndivergence found in %q:\n  original: %s\n  replica:  %s\n", tool, cmd, other)
		}
	}

	// Both derive from the same initial conditions — confirm the inputs
	// were NOT the difference.
	shared := false
	for _, anc := range ancestors(a.Ref) {
		if anc.Ref.Object == "/public/initial-conditions.dat" {
			shared = true
		}
	}
	if shared {
		fmt.Println("\ninputs were identical (same initial-conditions version); the flag was the difference")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
