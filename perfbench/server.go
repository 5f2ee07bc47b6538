package main

// Building, launching and observing rtserve as its own process.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root:
// the directory holding go.mod and cmd/rtserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "cmd", "rtserve", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod with cmd/rtserve) above the working directory")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// buildDir is where the benchmark keeps its build output and scratch
// files: $CARGO_TARGET_DIR when set (relative paths are taken from the
// repository root), else .bench_build under the root.
func buildDir(root string) string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	if !filepath.IsAbs(d) {
		d = filepath.Join(root, d)
	}
	return d
}

// buildServer compiles cmd/rtserve from source into the build directory.
func buildServer(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "rtserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rtserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build rtserve: %w", err)
	}
	return bin, nil
}

// server is one running rtserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{}
	log    bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient is the load generator's HTTP client: at most conns
// keep-alive connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// startServer launches rtserve on a fresh loopback port with the given
// extra flags and waits until /healthz answers.
func startServer(bin string, conns int, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, client: newClient(conns), done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// Should the benchmark die without stopping it, the kernel kills
	// the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rtserve: %w", err)
	}
	go func() { _ = s.cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("rtserve exited during start-up: %s", s.log.String())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("rtserve did not become healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop terminates the server gracefully (SIGTERM, as an operator would)
// and waits for it to exit, killing it if it lingers.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.client.CloseIdleConnections()
}

// solve posts one request body to /v1/solve and returns the answer.
func (s *server) solve(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// serverStats is the subset of GET /v1/stats the benchmark reads.
type serverStats struct {
	WarmHits int64 `json:"warm_hits"`
	Cache    struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Compiled struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Aliased   int64 `json:"aliased"`
		Evictions int64 `json:"evictions"`
	} `json:"compiled"`
	Pool struct {
		Workers int     `json:"workers"`
		Jobs    int64   `json:"jobs"`
		BusyMS  float64 `json:"busy_ms"`
	} `json:"pool"`
	Store *struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"store"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
