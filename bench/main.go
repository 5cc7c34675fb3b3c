// Command bench is the repository's benchmark: six workloads, six bounded
// end-to-end metrics plus the failure count, and an outside-in traced run
// that says which layer an operation's time belongs to. README.md has the
// tables; BENCHMARK.json at the repository root has the contract.
//
//	go run ./bench -workload tcp-small -seed 1 -seconds 10 -trace 0
//	go run ./bench -all -seed 1 > a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// record says where and how an output document was produced.
type record struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	Seconds    float64 `json:"window_seconds"`
}

func newRecord(seed int64, secs float64) record {
	return record{
		Seed: seed, Commit: commit(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: numWorkers(),
		GoVersion: runtime.Version(), Seconds: secs,
	}
}

// commit is the VCS revision the binary was built from: the build stamp
// when there is one, else what git says about the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line")
		all     = flag.Bool("all", false, "run every workload, untraced and traced, each in its own process")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		secs    = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", "bench/out", "directory for span files and CPU profiles of traced runs")
		repeat  = flag.Int("repeat", 1, "with -all: runs of each workload (their spread feeds -compare)")
		compare = flag.Bool("compare", false, "compare two -all documents: bench -compare a.json b.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two -all documents")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *all:
		err = runAll(*seed, *secs, *repeat, *out)
	case *name != "":
		err = runOne(*name, options{seed: *seed, seconds: *secs, trace: *trace != 0, out: *out})
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the run record,
// then the result as the last line of standard output.
func runOne(name string, o options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %v: the window must be at least 1s", o.seconds)
	}
	r, err := w.run(o)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(header{Record: newRecord(o.seed, o.seconds), Workload: name, Trace: o.trace, Samples: r.samples}); err != nil {
		return err
	}
	if err := enc.Encode(r); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%s: %s", name, strings.Join(r.problems, "; "))
	}
	return nil
}

// header is the line a single run prints before its result: the run record,
// the sample counts behind the result's medians, and what the calibration
// saw (raw_ops_per_s is the unscaled throughput, host_slowness the median
// factor; see calib.go).
type header struct {
	Record   record             `json:"record"`
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Samples  map[string]float64 `json:"samples"`
}

// document is what -all prints and -compare reads.
type document struct {
	Record    record              `json:"record"`
	Workloads map[string]*history `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// history is one workload's runs within a document.
type history struct {
	EndToEnd []entry `json:"end_to_end"`
	PerLayer []entry `json:"per_layer"`
}

// entry is one run: its result and the sample counts from its header.
type entry struct {
	Samples map[string]float64 `json:"samples"`
	result
}

// runAll runs every workload repeat times untraced and once traced, each in
// a re-exec'd process of its own so that peak RSS and GC state are per
// workload, and prints one document.
func runAll(seed int64, secs float64, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Record: newRecord(seed, secs), Workloads: map[string]*history{}}
	var failed []string
	for _, w := range workloads {
		h := &history{}
		doc.Workloads[w.name] = h
		for i := 0; i <= repeat; i++ {
			traced := i == repeat
			fmt.Fprintf(os.Stderr, "bench: %s (trace %v, run %d)\n", w.name, traced, i+1)
			e, err := runChild(self, w.name, seed, secs, traced, out)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			}
			if e.Metrics == nil {
				continue
			}
			if traced {
				h.PerLayer = append(h.PerLayer, e)
			} else {
				h.EndToEnd = append(h.EndToEnd, e)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// runChild runs one workload in a child process and decodes the last two
// lines of its output. A child that exits non-zero still yields its result
// when it printed one (a failed correctness check).
func runChild(self, name string, seed int64, secs float64, traced bool, out string) (entry, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace, "-out", out)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Metrics == nil {
		if runErr != nil {
			return entry{}, runErr
		}
		return entry{}, fmt.Errorf("no result in output: %v", err)
	}
	var h header
	if len(lines) >= 2 {
		_ = json.Unmarshal([]byte(lines[len(lines)-2]), &h) // sample counts are informational
	}
	return entry{Samples: h.Samples, result: r}, runErr
}
