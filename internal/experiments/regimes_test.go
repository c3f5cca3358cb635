package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quickSeed is the seed testdata/<name>_quick*.golden was generated at.
func quickSeed(name string) int64 {
	if name == "sched" || name == "partition" {
		return 42
	}
	return 1
}

var (
	quickMu   sync.Mutex
	quickRuns = map[string]RegimeResult{}
)

// quickRun returns the named suite's quick-scale result at its golden seed
// and workers=1. Every suite is a pure function of the seed (TestRegimes
// pins that), so one execution per test process serves every test.
func quickRun[T RegimeResult](name string) T {
	quickMu.Lock()
	defer quickMu.Unlock()
	res, ok := quickRuns[name]
	if !ok {
		row, _ := regimeByName(name)
		res = row.Run(quickSeed(name), true, 1)
		quickRuns[name] = res
	}
	return res.(T)
}

// slowUnderRace names the suites whose repeat run exceeds the race budget;
// internal/fleet pins their repeat and worker determinism under -race.
// slowInShort names the rows -short skips (the same suites whose own tests
// skip there); chaos and sampling stay checked in short runs.
var (
	slowUnderRace = map[string]bool{"fleet": true, "slo": true}
	slowInShort   = map[string]bool{"sched": true, "fleet": true, "partition": true, "slo": true}
)

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestRegimes drives every row of the suite table the way caer-bench does.
// Per row: the memoised workers=1 run must pass its gate and match the
// pinned digest, and one fresh workers=4 run through RunRegimes must leave
// byte-identical files and the same rendered table — which covers repeat-run
// identity, worker-count identity (under -race also the parallel stepper's
// data-race audit) and the artifact path in a single second execution.
func TestRegimes(t *testing.T) {
	for _, row := range Regimes {
		t.Run(row.Name, func(t *testing.T) {
			if testing.Short() && slowInShort[row.Name] {
				t.Skip("slow regime suite; skipped in -short")
			}
			res := quickRun[RegimeResult](row.Name)
			if err := res.Check(); err != nil {
				t.Fatalf("%s gate: %v", row.Name, err)
			}
			var rendered, artifact bytes.Buffer
			if err := res.Render(&rendered); err != nil {
				t.Fatalf("Render: %v", err)
			}
			if err := WriteJSON(&artifact, res); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			want := t.TempDir()
			if err := row.write(io.Discard, res, want); err != nil {
				t.Fatalf("write: %v", err)
			}
			wantFiles := readDir(t, want)
			file := "BENCH_" + row.Name + ".json"
			if row.TableOnly {
				if len(wantFiles) != 0 {
					t.Errorf("table-only suite wrote %d files", len(wantFiles))
				}
			} else if !bytes.Equal(wantFiles[file], artifact.Bytes()) || artifact.Len() == 0 {
				t.Errorf("%s (%d bytes) is not the in-memory WriteJSON (%d bytes)",
					file, len(wantFiles[file]), artifact.Len())
			}

			if !(raceEnabled && slowUnderRace[row.Name]) {
				got := t.TempDir()
				var stdout bytes.Buffer
				if err := RunRegimes(&stdout, []string{row.Name}, quickSeed(row.Name), true, 4, got); err != nil {
					t.Fatalf("RunRegimes: %v", err)
				}
				if !bytes.Contains(stdout.Bytes(), rendered.Bytes()) {
					t.Errorf("workers=4 run rendered a different table:\n%s\n--- workers=1 ---\n%s", stdout.String(), rendered.String())
				}
				gotFiles := readDir(t, got)
				if len(gotFiles) != len(wantFiles) {
					t.Errorf("workers=4 run wrote %d files, workers=1 %d", len(gotFiles), len(wantFiles))
				}
				for name, data := range wantFiles {
					if !bytes.Equal(gotFiles[name], data) {
						t.Errorf("%s differs between the workers=1 and the fresh workers=4 run", name)
					}
				}
			}
			if !row.TableOnly {
				checkGolden(t, row.Name+"_quick", artifact.Bytes())
			}
		})
	}
}

func TestRunRegimesRejectsUnknownSuite(t *testing.T) {
	dir := t.TempDir()
	err := RunRegimes(io.Discard, []string{"sched", "nope"}, 1, true, 1, dir)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("RunRegimes with an unknown suite: %v, want an error naming it and the valid set", err)
	}
	if files := readDir(t, dir); len(files) != 0 {
		t.Errorf("rejected run still wrote %d files", len(files))
	}
}
