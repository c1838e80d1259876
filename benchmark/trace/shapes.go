package trace

import "strconv"

// sized appends the tool registry's "-s <bytes>" convention: a derived
// output's median size rides in the recorded argv, so replay can re-derive
// the same bytes.
func sized(argv []string, median int) []string {
	return append(argv, "-s", strconv.Itoa(median))
}

// CompileConfig sizes the compile shape.
type CompileConfig struct {
	// Units is the number of cc invocations, one object file (one Close)
	// each.
	Units int
	// Sources and Headers are the pre-existing files ingested at setup;
	// every unit compiles one source against HeaderFanIn headers.
	Sources, Headers, HeaderFanIn int
	// SourceSize and ObjectSize are median file sizes in bytes.
	SourceSize, ObjectSize int
}

// Compile appends a kernel-build shape: a make process spawns one cc per
// unit; each cc reads its source and a fan-in of shared headers and writes
// one derived object file. Wide fan-in, one process per output.
func (b *Builder) Compile(cfg CompileConfig) {
	headers := make([]string, cfg.Headers)
	for i := range headers {
		headers[i] = b.path("/src/include/h%04d.h", i)
		b.ingest(headers[i], b.sizeAround(4<<10))
	}
	sources := make([]string, cfg.Sources)
	for i := range sources {
		sources[i] = b.path("/src/kernel/f%05d.c", i)
		b.ingest(sources[i], b.sizeAround(cfg.SourceSize))
	}
	mk := b.exec(-1, "make", []string{"make", "-j8", "vmlinux"})
	for u := 0; u < cfg.Units; u++ {
		src := sources[b.rng.IntN(len(sources))]
		obj := b.path("/obj/u%05d.o", u)
		cc := b.exec(mk, "cc", sized([]string{"cc", "-O2", "-c", src, "-o", obj}, cfg.ObjectSize))
		b.read(cc, src)
		first := b.rng.IntN(len(headers))
		for h := 0; h < cfg.HeaderFanIn && h < len(headers); h++ {
			b.read(cc, headers[(first+h*7)%len(headers)])
		}
		b.derive(cc, obj)
		b.close(cc, obj)
		b.exit(cc)
	}
	b.exit(mk)
}

// ChallengeConfig sizes the Provenance Challenge shape.
type ChallengeConfig struct {
	// Runs is the number of complete workflow executions (20 Closes each).
	Runs int
	// ImageSize is the median anatomy / resliced / atlas image size.
	ImageSize int
}

// Challenge appends First Provenance Challenge fMRI workflow runs:
//
//	align_warp x4 -> reslice x4 -> softmean -> slicer x3 -> convert x3
//
// Everything funnels through softmean, so the diamond ancestry gives the
// lineage queries (outputs of softmean, their descendants, a graphic's
// ancestors) something to traverse.
func (b *Builder) Challenge(cfg ChallengeConfig) {
	reference := b.path("/fmri/reference.img")
	b.ingest(reference, cfg.ImageSize)
	for run := 0; run < cfg.Runs; run++ {
		dir := b.path("/fmri/run%04d", run)
		var images, headers, warps, resliced [4]string
		for i := range images {
			images[i] = dir + "/anatomy" + strconv.Itoa(i+1) + ".img"
			headers[i] = dir + "/anatomy" + strconv.Itoa(i+1) + ".hdr"
			b.ingest(images[i], b.sizeAround(cfg.ImageSize))
			b.ingest(headers[i], 348) // ANALYZE header size
		}
		for i := range images {
			aw := b.exec(-1, "align_warp", []string{"align_warp", images[i], reference, "-m", "12"})
			b.read(aw, images[i])
			b.read(aw, headers[i])
			b.read(aw, reference)
			warps[i] = dir + "/warp" + strconv.Itoa(i+1) + ".warp"
			b.derive(aw, warps[i])
			b.close(aw, warps[i])
			b.exit(aw)
		}
		for i := range images {
			rs := b.exec(-1, "reslice", sized([]string{"reslice", warps[i]}, cfg.ImageSize))
			b.read(rs, warps[i])
			b.read(rs, images[i])
			resliced[i] = dir + "/resliced" + strconv.Itoa(i+1) + ".img"
			hdr := dir + "/resliced" + strconv.Itoa(i+1) + ".hdr"
			b.derive(rs, resliced[i])
			b.derive(rs, hdr)
			b.close(rs, resliced[i])
			b.close(rs, hdr)
			b.exit(rs)
		}
		sm := b.exec(-1, "softmean", sized([]string{"softmean", "atlas.img", "y", "null"}, cfg.ImageSize))
		for i := range resliced {
			b.read(sm, resliced[i])
		}
		atlas, atlasHdr := dir+"/atlas.img", dir+"/atlas.hdr"
		b.derive(sm, atlas)
		b.derive(sm, atlasHdr)
		b.close(sm, atlas)
		b.close(sm, atlasHdr)
		b.exit(sm)

		cr := ChallengeRun{Reference: reference, Atlas: atlas}
		for _, axis := range []string{"x", "y", "z"} {
			slice := dir + "/slice_" + axis + ".pgm"
			sl := b.exec(-1, "slicer", sized([]string{"slicer", atlas, "-" + axis, ".5"}, cfg.ImageSize/2))
			b.read(sl, atlas)
			b.read(sl, atlasHdr)
			b.derive(sl, slice)
			b.close(sl, slice)
			b.exit(sl)

			gif := dir + "/atlas_" + axis + ".gif"
			cv := b.exec(-1, "convert", sized([]string{"convert", slice, gif}, cfg.ImageSize/4))
			b.read(cv, slice)
			b.derive(cv, gif)
			b.close(cv, gif)
			b.exit(cv)
			cr.Graphics = append(cr.Graphics, gif)
		}
		b.t.Runs = append(b.t.Runs, cr)
	}
}

// BlastConfig sizes the BLAST shape.
type BlastConfig struct {
	// Jobs is the number of search jobs (BlastCloses Closes each).
	Jobs int
	// BatchesPerJob is how many query batches each of a job's two
	// pipelines streams; BatchPool is how many distinct batch files exist.
	BatchesPerJob, BatchPool int
	// DatabaseSize is the FASTA database size in bytes; formatdb derives
	// three index files from it (a third, a third and a twentieth).
	DatabaseSize int
	// BatchSize and ResultSize are median sizes of a query batch and of
	// one appended result chunk.
	BatchSize, ResultSize int
}

// BlastCloses is the number of Closes one Blast job issues: two result
// files and their summary.
const BlastCloses = 3

// Blast appends a BLAST sequence-search shape. formatdb indexes the
// database once; each job runs the shell pipeline
//
//	cat batch | blastall | tee -a job.out
//
// per batch into two result files (one per strand), then a perl
// summarizer over both. Every batch adds a cat process, two pipes and —
// because blastall and tee gain an input after producing output — new
// blastall and tee versions, so transient object versions far outnumber
// the three files a job closes, and two closes in three carry a long
// transient chain.
func (b *Builder) Blast(cfg BlastConfig) {
	fasta := b.path("/blast/db/nr.fasta")
	b.ingest(fasta, cfg.DatabaseSize)
	pool := make([]string, cfg.BatchPool)
	for i := range pool {
		pool[i] = b.path("/blast/queries/batch%03d.fasta", i)
		b.ingest(pool[i], b.sizeAround(cfg.BatchSize))
	}

	fdb := b.exec(-1, "formatdb", []string{"formatdb", "-i", fasta})
	b.read(fdb, fasta)
	dbFiles := []string{b.path("/blast/db/nr.phr"), b.path("/blast/db/nr.pin"), b.path("/blast/db/nr.psq")}
	for _, f := range dbFiles {
		b.derive(fdb, f)
		b.close(fdb, f)
	}
	b.exit(fdb)

	for j := 0; j < cfg.Jobs; j++ {
		var outs []string
		for _, half := range []string{"a", "b"} {
			out := b.path("/blast/results/job%04d%s.out", j, half)
			blast := b.exec(-1, "blastall", []string{"blastall", "-p", "blastp", "-d", "nr"})
			tee := b.exec(-1, "tee", []string{"tee", "-a", out})
			for _, f := range dbFiles {
				b.read(blast, f)
			}
			for k := 0; k < cfg.BatchesPerJob; k++ {
				batch := pool[b.rng.IntN(len(pool))]
				cat := b.exec(-1, "cat", []string{"cat", batch})
				b.read(cat, batch)
				b.emit(Op{Kind: PipeTo, Proc: cat, Peer: blast})
				b.exit(cat)
				b.emit(Op{Kind: PipeTo, Proc: blast, Peer: tee})
				chunk := b.payload(b.sizeAround(cfg.ResultSize))
				b.t.UserBytes += int64(len(chunk))
				b.emit(Op{Kind: Append, Proc: tee, Path: out, Data: chunk})
			}
			b.close(tee, out)
			b.exit(blast)
			b.exit(tee)
			outs = append(outs, out)
		}

		summary := b.path("/blast/results/job%04d.summary", j)
		perl := b.exec(-1, "perl", append([]string{"perl", "summarize.pl"}, outs...))
		for _, out := range outs {
			b.read(perl, out)
		}
		b.derive(perl, summary)
		b.close(perl, summary)
		b.exit(perl)
	}
}
