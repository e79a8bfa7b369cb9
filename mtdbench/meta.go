package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// meta describes the machine and the build a record was measured on.
type meta struct {
	CPU       string `json:"cpu"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	// Commit identifies the measured source: a SHA-256 over the tree's Go
	// sources and module files (the benchmark runs in checkouts that
	// carry no version-control metadata).
	Commit string `json:"commit"`
	Seed   int64  `json:"seed"`
	// GOMAXPROCS of each process the benchmark runs.
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
}

// childProcs is the GOMAXPROCS every child process and the daemon run at.
const childProcs = 1

func collectMeta(root string, seed int64) (meta, error) {
	commit, err := treeHash(root)
	if err != nil {
		return meta{}, err
	}
	return meta{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed,
		GOMAXPROCS: map[string]int{
			"mtdbench": runtime.GOMAXPROCS(0),
			"child":    childProcs,
			"gridmtdd": childProcs,
		},
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeHash hashes every .go, go.mod and testdata file under root, skipping
// hidden directories (build output, version control).
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.Contains(p, string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// childRun is one finished child process.
type childRun struct {
	Start  time.Time // just before the fork
	PeakMB float64   // peak resident set size, from rusage
}

// childTimeout bounds one child process, so a hung child cannot hold a run
// past its time limit.
const childTimeout = 120 * time.Second

// spawnChild runs this binary in a child role at GOMAXPROCS=1 and decodes
// its JSON result into v.
func spawnChild(e *env, v any, args ...string) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.self, args...)
	cmd.Env = childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cr := childRun{Start: time.Now()}
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("child %v: %v: %s", args, err, tail(stderr.String()))
	}
	cr.PeakMB = peakMB(cmd.ProcessState)
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return cr, fmt.Errorf("child %v: decode result: %v", args, err)
	}
	return cr, nil
}

func peakMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func tail(s string) string {
	if len(s) > 2000 {
		return "..." + s[len(s)-2000:]
	}
	return s
}

// childEnv is the environment of every child process and the daemon.
func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
}
