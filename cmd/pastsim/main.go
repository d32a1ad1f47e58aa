// Command pastsim regenerates the paper's tables and figures.
//
// Usage:
//
//	pastsim -exp all                 # every experiment, CI scale
//	pastsim -exp E1,E3 -scale full   # selected experiments, paper scale
//	pastsim -list                    # show the experiment index
//
// Output is plain text, one table per experiment, in the shape of the
// corresponding figure/table in the paper (see ARCHITECTURE.md for the
// experiment index and the paper-to-code mapping).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"past/internal/experiments"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scaleFlag  = flag.String("scale", "small", "small (seconds), full (paper scale, minutes), large (20k nodes, bulk-built), or huge (100k nodes)")
		seedFlag   = flag.Int64("seed", 42, "random seed; identical seeds reproduce identical tables")
		listFlag   = flag.Bool("list", false, "list experiment ids and exit")
		seriesFlag = flag.String("series", "", "write per-window telemetry series (line protocol) for the instrumented experiments (E15, E18, E20) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiments run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		churnRate    = flag.Float64("churn-rate-scale", experiments.Churn.RateScale, "multiplier on the churn experiments' (E15-E17) node arrival rates")
		churnSession = flag.Duration("churn-session", experiments.Churn.MedianSession, "median node session length for the churn experiments")
		churnCrash   = flag.Float64("churn-crash-frac", experiments.Churn.CrashFrac, "fraction of churn departures that are silent crashes (the rest leave gracefully)")
	)
	flag.Parse()
	if *churnRate < 0 || *churnCrash < 0 || *churnCrash > 1 || *churnSession <= 0 {
		fmt.Fprintln(os.Stderr, "pastsim: churn flags must satisfy rate-scale >= 0, 0 <= crash-frac <= 1, session > 0")
		os.Exit(2)
	}
	experiments.Churn.RateScale = *churnRate
	experiments.Churn.MedianSession = *churnSession
	experiments.Churn.CrashFrac = *churnCrash

	if *listFlag {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pastsim: %v\n", err)
		os.Exit(2)
	}
	ids := experiments.IDs()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}
	var seriesOut *os.File
	if *seriesFlag != "" {
		experiments.CollectSeries = true
		seriesOut, err = os.Create(*seriesFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastsim: %v\n", err)
			os.Exit(1)
		}
		defer seriesOut.Close()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	seriesLines := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		res, err := experiments.Run(id, scale, *seedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastsim: %v\n", err)
			os.Exit(1)
		}
		secs := time.Since(start).Seconds()
		fmt.Println(res.String())
		timing := fmt.Sprintf("(%s in %.1fs", id, secs)
		if res.Nodes > 0 {
			timing += fmt.Sprintf(", %d nodes", res.Nodes)
		}
		if res.Events > 0 {
			timing += fmt.Sprintf(", %d events, %.0f events/s", res.Events, float64(res.Events)/secs)
		}
		fmt.Printf("%s)\n\n", timing)
		if seriesOut != nil && res.SeriesLP != "" {
			if _, err := seriesOut.WriteString(res.SeriesLP); err != nil {
				fmt.Fprintf(os.Stderr, "pastsim: write %s: %v\n", *seriesFlag, err)
				os.Exit(1)
			}
			seriesLines += strings.Count(res.SeriesLP, "\n")
		}
	}
	if seriesOut != nil {
		fmt.Printf("wrote %d series points to %s\n", seriesLines, *seriesFlag)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err == nil {
			runtime.GC() // the profile is of what the last collection found live
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastsim: %v\n", err)
			os.Exit(1)
		}
	}
}
