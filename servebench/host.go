package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host is the fingerprint recorded with every result: what ran the
// benchmark, on what, against which source.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	// Commit is the git revision the caller passed in SERVEBENCH_COMMIT
	// ("unknown" outside a git checkout); Source is a SHA-256 over the
	// module's .go and go.mod files, which identifies the code measured
	// either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func fingerprint(workload string, seed int64, root string) host {
	h := host{
		Workload:   workload,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("SERVEBENCH_COMMIT"),
		Source:     sourceDigest(root),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
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

// sourceDigest hashes every .go and go.mod file under root, in path
// order, skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(sum, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(sum, f)
			f.Close()
		}
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
