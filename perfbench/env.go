package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envInfo is recorded with every result, so runs on different machines or
// commits are never compared by accident.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary, or "unknown" when
	// it was built outside a git checkout.
	Commit string `json:"commit"`
	// SourceSHA256 hashes every .go file and go.mod of the module the
	// benchmark builds, which identifies the code without git.
	SourceSHA256 string `json:"source_sha256"`
}

func environment() envInfo {
	return envInfo{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceHash(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash hashes the Go sources and go.mod files below the working
// directory (the checkout root when run through run.sh), skipping hidden
// directories such as the build and output directories.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
