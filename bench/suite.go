package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// maxResultsBytes caps the results file so that it stays reviewable:
// scalars per workload and metric, no per-address vectors.
const maxResultsBytes = 64 << 10

// resultsFile is what a suite run leaves in out/results.json.
type resultsFile struct {
	Meta meta `json:"meta"`
	// Sets holds one entry per repetition of the suite: workload name
	// to that run's result.
	Sets []map[string]setResult `json:"sets"`
}

type meta struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Started    string `json:"started"`
}

// setResult is a result with the units dropped; spec.go has them.
type setResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newMeta(cfg runConfig) meta {
	return meta{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second),
		Trace: cfg.trace, Started: time.Now().UTC().Format(time.RFC3339)}
}

func (f *resultsFile) encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return nil, err
	}
	if len(b) > maxResultsBytes {
		return nil, fmt.Errorf("results are %d bytes, over the %d-byte cap: run fewer sets per file", len(b), maxResultsBytes)
	}
	return append(b, '\n'), nil
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// lastLine copies r to w and returns the final non-empty line.
func lastLine(r io.Reader, w io.Writer) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	last := ""
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			last = line
			fmt.Fprintln(w, line)
		}
	}
	return last, sc.Err()
}

// runChild runs one workload in a process of its own, so that peak
// memory and set-up time are that workload's alone.
func runChild(cfg runConfig, workload string) (setResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return setResult{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.seconds/time.Second)), "-trace", trace, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return setResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return setResult{}, err
	}
	line, readErr := lastLine(out, os.Stdout)
	waitErr := cmd.Wait()
	if readErr != nil {
		return setResult{}, readErr
	}
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return setResult{}, errors.Join(fmt.Errorf("%s printed no result: %w", workload, err), waitErr)
	}
	sr := setResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, m := range res.Metrics {
		sr.Metrics[name] = m.Value
	}
	return sr, nil
}

// runSuite runs every workload, sets times over, and writes the
// results file. It returns the process's exit code.
func runSuite(cfg runConfig, sets int) int {
	file := resultsFile{Meta: newMeta(cfg)}
	code := 0
	for s := 0; s < sets; s++ {
		set := map[string]setResult{}
		for _, w := range workloads {
			fmt.Printf("--- set %d/%d: %s (op = %s; %s)\n", s+1, sets, w.Name, w.Op, w.Why)
			res, err := runChild(cfg, w.Name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			set[w.Name] = res
		}
		file.Sets = append(file.Sets, set)
	}
	b, err := file.encode()
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "results.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("--- %d set(s) of %d workloads written to %s\n", sets, len(workloads), filepath.Join(cfg.outDir, "results.json"))
	return code
}
