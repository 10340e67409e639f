package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is the header every result carries: what was measured, on
// what, and how. Run from the repository root.
func environment(cfg config) map[string]string {
	flush := "WAL writes without fsync (NoSync), primary and replica"
	conns := "2"
	if cfg.workload == "lib-scan" {
		flush, conns = "none (in-memory, no WAL)", "0"
	}
	return map[string]string{
		"commit":           gitCommit(),
		"source_sha256":    sourceDigest(),
		"go_version":       runtime.Version(),
		"nproc":            strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":       strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu_model":        cpuModel(),
		"JIFFY_SERVE_MODE": os.Getenv("JIFFY_SERVE_MODE"),
		"flush_policy":     flush,
		"seed":             strconv.FormatInt(cfg.seed, 10),
		"keys":             strconv.Itoa(numKeys),
		"value_bytes":      strconv.Itoa(valueBytes),
		"measure_s":        strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"warmup_s":         strconv.FormatFloat(cfg.warmup().Seconds(), 'g', -1, 64),
		"setups":           strconv.Itoa(setupReps),
		"load_goroutines":  strconv.Itoa(loadWorkers()),
		"client_conns":     conns,
	}
}

// gitCommit reads HEAD from .git without running git; a checkout that
// is not a repository reports "none".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory (hidden directories skipped), naming the code measured even
// where there is no commit to name.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
