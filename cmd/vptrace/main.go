// Command vptrace inspects and analyzes binary trace files written by
// vprun -trace (the SHADE-style decoupled flow: trace once, analyze many
// times offline).
//
// Usage:
//
//	vptrace -stats trace.vptrc              # summary statistics
//	vptrace -dump -limit 20 trace.vptrc     # print records
//	vptrace -profile out.prof trace.vptrc   # offline profile image
//	vptrace -critpath trace.vptrc           # dataflow critical path
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/critpath"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// version is stamped by release builds via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		stats    = flag.Bool("stats", false, "print summary statistics")
		dump     = flag.Bool("dump", false, "print records")
		limit    = flag.Int64("limit", 20, "maximum records to dump")
		profOut  = flag.String("profile", "", "write an offline profile image to this path")
		critPath = flag.Bool("critpath", false, "compute the dataflow critical path")
		progName = flag.String("name", "trace", "program name recorded in the profile image")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Format("vptrace", version))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vptrace [-stats|-dump|-profile out.prof|-critpath] trace.vptrc")
		os.Exit(2)
	}
	if !*stats && !*dump && *profOut == "" && !*critPath {
		*stats = true
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}

	var (
		total, valueProds, loads, stores, branches, taken int64
		phases                                            = map[int]int64{}
		col                                               = profiler.NewCollector()
		cp                                                = critpath.New()
		dumped                                            int64
	)
	for {
		var rec trace.Record
		err := r.Next(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fatal(err)
		}
		total++
		if rec.HasDest {
			valueProds++
		}
		info := rec.Op.Info()
		switch {
		case info.IsLoad:
			loads++
		case info.IsStore:
			stores++
		case info.IsBranch:
			branches++
			if rec.Taken {
				taken++
			}
		}
		phases[rec.Phase]++
		if *profOut != "" {
			col.Consume(&rec)
		}
		if *critPath {
			cp.Consume(&rec)
		}
		if *dump && dumped < *limit {
			dest := "-"
			if rec.HasDest {
				dest = fmt.Sprintf("r%d=%d", rec.Dest, rec.Value)
				if rec.DestFP {
					dest = fmt.Sprintf("f%d=%#x", rec.Dest, uint64(rec.Value))
				}
			}
			mem := ""
			if rec.HasMem {
				mem = fmt.Sprintf(" mem[%d]", rec.MemAddr)
			}
			fmt.Printf("%8d  pc=%-6d %-6s dir=%-9s %s%s\n",
				rec.Seq, rec.Addr, rec.Op, rec.Dir, dest, mem)
			dumped++
		}
	}

	if *stats {
		fmt.Printf("format:             %s\n", r.Format())
		fmt.Printf("records:            %d\n", total)
		if fi, err := f.Stat(); err == nil && total > 0 {
			fmt.Printf("on-disk bytes/rec:  %.2f (%d bytes)\n", float64(fi.Size())/float64(total), fi.Size())
		}
		fmt.Printf("value producers:    %d (%.1f%%)\n", valueProds, pct(valueProds, total))
		fmt.Printf("loads:              %d\n", loads)
		fmt.Printf("stores:             %d\n", stores)
		fmt.Printf("branches:           %d (%.1f%% taken)\n", branches, pct(taken, branches))
		for ph, n := range phases {
			fmt.Printf("phase %d:            %d\n", ph, n)
		}
	}
	if *profOut != "" {
		im := col.Image(*progName, flag.Arg(0))
		if err := im.SaveFile(*profOut); err != nil {
			fatal(err)
		}
		fmt.Printf("profile:            %d instructions → %s\n", len(im.Entries), *profOut)
	}
	if *critPath {
		res := cp.Result()
		fmt.Printf("critical path:      %d of %d instructions (dataflow ILP %.2f)\n",
			res.Length, res.Instructions, res.DataflowILP())
		show := res.Path
		if len(show) > 10 {
			show = show[:10]
		}
		for _, pe := range show {
			fmt.Printf("  pc=%-6d ×%d\n", pe.Addr, pe.Count)
		}
	}
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vptrace:", err)
	os.Exit(1)
}
