// Command bench measures seaserve from socket to socket: it builds
// cmd/seaserve, spawns real server processes on loopback, drives them
// over HTTP on a fixed timetable and prints what a client saw. With
// -trace 1 it also boots the same topology in-process, replays the
// start of the same op sequence on one goroutine and reports where the
// time went, layer by layer. README.md explains every workload, metric
// and timing rule.
//
//	go run . -workload dash-1n -seed 1 [-seconds 24] [-trace 1] [-record runs.json]
//	go run . compare a.json b.json
//	go run . summary runs.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// watchdog is the longest a run may take; the driver allows 180 s.
const watchdog = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "summary":
			os.Exit(summaryMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	record   string
}

func runMain(args []string) int {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload to run: dash-1n, exact-3n or ingest-3n")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the timed ops (the table and the warm-up are fixed)")
	fs.IntVar(&c.seconds, "seconds", 24, "total length of the timed phases")
	fs.IntVar(&c.trace, "trace", 0, "1 adds the in-process traced replay and prints the per-layer metrics")
	fs.StringVar(&c.record, "record", "", "append this run's result to a file for compare and summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	die := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return die(err)
	}
	scratch := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return die(err)
	}
	// No exit path may leave a server or a data directory behind.
	cleanup := func() {
		killAllChildren()
		_ = os.RemoveAll(scratch) // best effort on the way out; .bench_build is disposable
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(1)
	}()
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", watchdog)
		cleanup()
		os.Exit(1)
	})

	res, err := run(c, sp, root, scratch)
	cleanup()
	if err != nil {
		return die(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return die(err)
	}
	if c.record != "" {
		if err := appendRecord(c.record, record{Workload: sp.name, Seed: c.seed, Trace: c.trace, Result: res}); err != nil {
			return die(err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects metrics in the order they were measured, with the
// sample count behind each, and prints them by name and unit.
type report struct {
	names []string
	vals  map[string]metricValue
	notes map[string]string
}

func newReport() *report {
	return &report{vals: map[string]metricValue{}, notes: map[string]string{}}
}

// set records a metric; its unit comes from the metric tables, so a
// name those do not list is a bug in this program.
func (r *report) set(name string, v float64, note string) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is in no metric table")
	}
	if _, dup := r.vals[name]; !dup {
		r.names = append(r.names, name)
	}
	r.vals[name] = metricValue{Value: v, Unit: unit}
	r.notes[name] = note
}

func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range r.names {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", n, r.vals[n].Value, r.vals[n].Unit, r.notes[n])
	}
}

// run does one whole benchmark run and returns what to print.
func run(c config, sp spec, root, scratch string) (result, error) {
	bin, err := buildSeaserve(root)
	if err != nil {
		return result{}, err
	}
	sock, err := runSockets(c, sp, bin, scratch)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: len(sock.problems) == 0, Attempted: sock.attempted, Failed: sock.failed}
	sock.endToEnd.print(os.Stdout, fmt.Sprintf("end-to-end, %s seed %d, %d s, %d connections",
		sp.name, c.seed, c.seconds, runtime.NumCPU()))
	sock.layers.print(os.Stdout, "also measured on the sockets (reported with -trace 1)")
	for _, p := range sock.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if c.trace == 0 {
		res.Metrics = sock.endToEnd.vals
		return res, nil
	}
	layers, err := tracedRun(sp, root, scratch, sock)
	if err != nil {
		return result{}, err
	}
	layers.print(os.Stdout, "per-layer, "+sp.name)
	res.Metrics = layers.vals
	return res, nil
}

// repoRoot finds the checkout that holds both this benchmark and the
// program it measures, from the directory the command was started in
// (the root, or bench/ under go run -C).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if fileExists(filepath.Join(dir, "cmd", "seaserve", "main.go")) &&
			fileExists(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from bench/: cmd/seaserve not found")
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// buildSeaserve compiles the server from the checkout's source.
func buildSeaserve(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "seaserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/seaserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/seaserve: %w\n%s", err, out)
	}
	return bin, nil
}

// record is one run as kept in a -record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a -record file: JSON values one after another.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
