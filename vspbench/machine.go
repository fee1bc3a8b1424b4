package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// machine identifies where a result was measured, so that results are
// only compared across runs on the same class of machine.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// WALFilesystem is the filesystem type of the directory the durable
	// workload journals into; fsync cost depends on it.
	WALFilesystem string `json:"wal_filesystem"`
}

func fingerprint(walDir string) machine {
	return machine{
		CPUModel:      cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		WALFilesystem: filesystem(walDir),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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
