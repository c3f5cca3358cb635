package main

// The committed trajectory: history.jsonl is append-only (run.sh appends),
// one full result a line with the fingerprint of the host that measured it. Host times
// compare only between lines of one fingerprint.
//
// Binds to: nothing of the system under test.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
)

// host is what decides whether two results' host times are comparable.
// Commit is recorded but is not part of the fingerprint.
type host struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func (h host) sameMachine(o host) bool {
	return h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.CPUModel == o.CPUModel
}

// fingerprint describes this host. The commit comes from BENCH_COMMIT,
// which run.sh sets from git: the benchmark itself runs in checkouts that
// are not repositories.
func fingerprint() host {
	return host{
		Commit:     os.Getenv("BENCH_COMMIT"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// errNoBaseline reports that a trajectory holds no line from this host.
var errNoBaseline = errors.New("no history line from this host fingerprint")

// loadReport reads a result file. A .jsonl trajectory yields its last line
// measured on a host with the same fingerprint as like.
func loadReport(path string, like *host) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) && like != nil {
			return nil, errNoBaseline
		}
		return nil, fmt.Errorf("open result: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var last *report
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		if like == nil || r.Host.sameMachine(*like) {
			last = &r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if last == nil {
		return nil, errNoBaseline
	}
	return last, nil
}
