package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostStamp records what the numbers of a run depend on besides the code:
// CPUs, Go, kernel, the filesystem and device the WAL fsyncs to, the
// commit the benchmark was built from, and the seed.
func hostStamp(o opts) map[string]any {
	fs, dev := mountOf(o.dir)
	return map[string]any{
		"workload":   o.w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"wal_fs":     fs,
		"wal_device": dev,
		"commit":     commit(),
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// mountOf returns the filesystem type and source device of the mount
// holding dir, from /proc/self/mountinfo (the longest matching mount
// point wins).
func mountOf(dir string) (fstype, device string) {
	fstype, device = "unknown", "unknown"
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	if r, err := filepath.EvalSymlinks(abs); err == nil {
		abs = r
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return
	}
	defer f.Close()
	best := -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent major:minor root mountpoint options... - fstype source superopts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 2 {
			continue
		}
		mp := fields[4]
		if abs != mp && !strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			continue
		}
		if len(mp) > best {
			best, fstype, device = len(mp), tail[0], tail[1]
		}
	}
	return
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
