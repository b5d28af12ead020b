package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the code and the host a result was measured on.
type fingerprint struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fingerprint{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// gitSHA reads the commit checked out in the working directory, or
// returns "unknown" when it is not a git checkout (an exported tree).
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
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
