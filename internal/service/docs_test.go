package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// apiDocPath locates docs/API.md from the package directory.
const apiDocPath = "../../docs/API.md"

// docExample is one replay-tagged fenced block from docs/API.md.
type docExample struct {
	line       int    // 1-based line of the opening fence
	wantStatus int    // from "replay=NNN"; 200 by default
	text       string // block body (one curl command)
}

// parseDocExamples extracts every fenced code block whose info string
// carries the "replay" tag, e.g. ```sh replay or ```sh replay=202.
func parseDocExamples(t *testing.T, doc string) []docExample {
	t.Helper()
	var (
		examples []docExample
		cur      *docExample
		body     []string
	)
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "```") {
			if cur != nil {
				body = append(body, line)
			}
			continue
		}
		if cur != nil { // closing fence
			cur.text = strings.Join(body, "\n")
			examples = append(examples, *cur)
			cur, body = nil, nil
			continue
		}
		info := strings.Fields(strings.TrimPrefix(trimmed, "```"))
		for _, tag := range info {
			if tag == "replay" {
				cur = &docExample{line: i + 1, wantStatus: http.StatusOK}
			} else if s, ok := strings.CutPrefix(tag, "replay="); ok {
				status, err := strconv.Atoi(s)
				if err != nil {
					t.Fatalf("docs/API.md:%d: bad replay tag %q", i+1, tag)
				}
				cur = &docExample{line: i + 1, wantStatus: status}
			}
		}
	}
	if cur != nil {
		t.Fatal("docs/API.md: unterminated fenced block")
	}
	return examples
}

// shellTokens splits a command the way a POSIX shell would for the
// subset curl examples use: whitespace-separated words, single- and
// double-quoted strings (which may span lines), backslash escapes.
func shellTokens(t *testing.T, text string) []string {
	t.Helper()
	var (
		tokens  []string
		tok     strings.Builder
		started bool
		quote   rune // 0, '\'' or '"'
	)
	flush := func() {
		if started {
			tokens = append(tokens, tok.String())
			tok.Reset()
			started = false
		}
	}
	runes := []rune(text)
	for i := 0; i < len(runes); i++ {
		c := runes[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				tok.WriteRune(c)
			}
		case c == '\'' || c == '"':
			quote, started = c, true
		case c == '\\' && i+1 < len(runes):
			i++
			if runes[i] != '\n' { // line continuation disappears
				tok.WriteRune(runes[i])
				started = true
			}
		case c == ' ' || c == '\t' || c == '\n':
			flush()
		case c == '#' && !started:
			for i < len(runes) && runes[i] != '\n' {
				i++
			}
		default:
			tok.WriteRune(c)
			started = true
		}
	}
	if quote != 0 {
		t.Fatalf("unterminated %q quote in example: %s", quote, text)
	}
	flush()
	return tokens
}

// curlCall is the HTTP request a documented curl command describes.
type curlCall struct {
	method string
	url    string
	body   string
}

// parseCurl interprets the curl flag subset the documentation uses.
func parseCurl(t *testing.T, ex docExample, baseURL string) curlCall {
	t.Helper()
	tokens := shellTokens(t, ex.text)
	if len(tokens) == 0 || tokens[0] != "curl" {
		t.Fatalf("docs/API.md:%d: replay block is not a curl command: %q", ex.line, ex.text)
	}
	call := curlCall{method: ""}
	needsValue := map[string]bool{
		"-X": true, "--request": true,
		"-d": true, "--data": true, "--data-raw": true,
		"-H": true, "--header": true,
		"--max-time": true, "-o": true,
	}
	for i := 1; i < len(tokens); i++ {
		tk := tokens[i]
		switch {
		case tk == "-X" || tk == "--request":
			i++
			call.method = tokens[i]
		case tk == "-d" || tk == "--data" || tk == "--data-raw":
			i++
			call.body = tokens[i]
		case needsValue[tk]:
			i++ // flag value we do not model
		case strings.HasPrefix(tk, "-"):
			// boolean flag (-s, -N, -i, ...)
		case strings.Contains(tk, "localhost:8080"):
			call.url = strings.Replace(tk, "http://localhost:8080", baseURL, 1)
			call.url = strings.Replace(call.url, "localhost:8080", strings.TrimPrefix(baseURL, "http://"), 1)
			if !strings.HasPrefix(call.url, "http") {
				call.url = "http://" + call.url
			}
		default:
			t.Fatalf("docs/API.md:%d: unexpected curl operand %q", ex.line, tk)
		}
	}
	if call.url == "" {
		t.Fatalf("docs/API.md:%d: no localhost:8080 URL in example", ex.line)
	}
	if call.method == "" {
		if call.body != "" {
			call.method = http.MethodPost
		} else {
			call.method = http.MethodGet
		}
	}
	return call
}

// TestAPIDocExamplesReplay executes every replay-tagged curl example in
// docs/API.md, in document order, against one in-process server, and
// checks each returns its documented status with a well-formed body.
// The examples double as an end-to-end tour: sync solves, async jobs,
// SSE streaming, frontier sweeps and store-addressed sweeps all run.
func TestAPIDocExamplesReplay(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(apiDocPath))
	if err != nil {
		t.Fatalf("read API reference: %v", err)
	}
	examples := parseDocExamples(t, string(raw))
	if len(examples) < 12 {
		t.Fatalf("found only %d replay examples; the reference should exercise every endpoint", len(examples))
	}
	_, ts := newTestServer(t, Config{Workers: 2, StoreDir: t.TempDir()})

	for _, ex := range examples {
		call := parseCurl(t, ex, ts.URL)
		req, err := http.NewRequest(call.method, call.url, strings.NewReader(call.body))
		if err != nil {
			t.Fatalf("docs/API.md:%d: %v", ex.line, err)
		}
		if call.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("docs/API.md:%d: %s %s: %v", ex.line, call.method, call.url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("docs/API.md:%d: read body: %v", ex.line, err)
		}
		if resp.StatusCode != ex.wantStatus {
			t.Fatalf("docs/API.md:%d: %s %s: status %d, want %d (body %s)",
				ex.line, call.method, call.url, resp.StatusCode, ex.wantStatus, body)
		}
		if ct := resp.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/event-stream") {
			if !strings.Contains(string(body), "event: progress") || !strings.Contains(string(body), "event: done") {
				t.Fatalf("docs/API.md:%d: SSE stream missing progress/done frames:\n%s", ex.line, body)
			}
			continue
		}
		var js json.RawMessage
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatalf("docs/API.md:%d: response is not JSON: %v\n%s", ex.line, err, body)
		}
		if ex.wantStatus >= 400 {
			// Every non-2xx answer carries the unified envelope: a code from
			// the documented vocabulary and a human message.
			var envelope errorResponse
			if err := json.Unmarshal(body, &envelope); err != nil ||
				envelope.Error.Code == "" || envelope.Error.Message == "" {
				t.Fatalf("docs/API.md:%d: error response lacks the unified error envelope: %s", ex.line, body)
			}
			if envelope.Error.Code != errCodeFor(ex.wantStatus) {
				t.Fatalf("docs/API.md:%d: error code %q does not match status %d (%q)",
					ex.line, envelope.Error.Code, ex.wantStatus, errCodeFor(ex.wantStatus))
			}
		}
	}
}

// TestAPIDocCoversEndpoints fails when a route registered in
// Server.routes is missing from docs/API.md — the documentation gate
// that keeps the reference complete as endpoints are added.
func TestAPIDocCoversEndpoints(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(apiDocPath))
	if err != nil {
		t.Fatalf("read API reference: %v", err)
	}
	doc := string(raw)
	for _, ep := range Endpoints() {
		if !strings.Contains(doc, ep.Pattern) {
			t.Errorf("endpoint %s is registered but undocumented in docs/API.md", ep.Pattern)
		}
		for _, m := range ep.Methods {
			if !strings.Contains(doc, fmt.Sprintf("%s | `%s`", m, ep.Pattern)) &&
				!strings.Contains(doc, fmt.Sprintf("%s %s", m, ep.Pattern)) {
				t.Errorf("method %s %s is served but not documented in docs/API.md", m, ep.Pattern)
			}
		}
	}
}
