package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// newRemote serves a fresh rtserve over HTTP for -server sweeps.
func newRemote(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// testInstance is a small deterministic instance in the wire form.
func testInstance(t *testing.T) []byte {
	t.Helper()
	inst, err := json.Marshal(scenario.NewGen(51).StepInstance(3, 3, 2, 4, 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestFrontierLocalMatchesRemote pins that both modes run rtserve's one
// sweep: the in-process server and a remote one return the same curve,
// wall times aside.
func TestFrontierLocalMatchesRemote(t *testing.T) {
	req, err := frontierRequest(testInstance(t), "0:14:8", "exact", 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := localFrontier(req)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := remoteFrontier(newRemote(t).URL+"/v1/frontier", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Points) != 8 {
		t.Fatalf("local sweep has %d points, want 8", len(local.Points))
	}
	for _, fr := range []*service.FrontierResponse{&local, &remote} {
		fr.WallMS = 0
		for i := range fr.Points {
			fr.Points[i].WallMS = 0
		}
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("local and remote sweeps differ:\n%+v\n%+v", local, remote)
	}
}

// TestFrontierEmptyRange pins that both modes reject an empty range with
// the service's own message, including the remote 400's envelope.
func TestFrontierEmptyRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "instance.json")
	if err := os.WriteFile(path, testInstance(t), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "budget_max 3 not above budget_min 3"
	for _, serverURL := range []string{"", newRemote(t).URL} {
		err := runFrontier(io.Discard, path, "3:3", "auto", serverURL, 0.5, 0, 0)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("server %q: error %v, want it to contain %q", serverURL, err, want)
		}
	}
}
