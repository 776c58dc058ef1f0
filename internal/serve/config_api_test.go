package serve

// Tests for the redesigned /v1 physics-config surface: the config object
// on session and job creation, the effective-config echo, resolution
// precedence, and the deprecation headers on the legacy flat fields.

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"nbody/internal/jobs"
)

func TestCreateSessionConfigEcho(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	resp := postJSON(t, srv.URL+"/v1/sessions",
		`{"workload":"plummer","n":64,"config":{
			"algorithm":"bvh","dt":0.001,"eps":0,"theta":0.9,
			"tree_reuse":{"rebuild_every":3,"refit_threshold":0.02}}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if d := resp.Header.Get("Deprecation"); d != "" {
		t.Errorf("config-object request must not be marked deprecated (Deprecation: %q)", d)
	}
	info := decodeBody[Info](t, resp)

	eff := info.Config
	if eff.Algorithm != "bvh" || eff.DT != 0.001 || eff.Theta != 0.9 {
		t.Errorf("echoed config %+v", eff)
	}
	if eff.Eps != 0 {
		t.Errorf("explicit eps=0 must survive resolution, got %v", eff.Eps)
	}
	if eff.G != 1 || eff.Sequential {
		t.Errorf("defaults not applied in echo: %+v", eff)
	}
	if eff.TreeReuse.RebuildEvery != 3 || eff.TreeReuse.RefitThreshold != 0.02 {
		t.Errorf("tree_reuse echo %+v", eff.TreeReuse)
	}

	// The same fully resolved config comes back on GET.
	gresp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[Info](t, gresp).Config; got != eff {
		t.Errorf("GET config %+v != create echo %+v", got, eff)
	}
}

func TestCreateSessionLegacyFieldsDeprecated(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	resp := postJSON(t, srv.URL+"/v1/sessions",
		`{"workload":"plummer","n":64,"dt":0.002,"algorithm":"octree","theta":0.7}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy flat fields must set the Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, `rel="successor-version"`) {
		t.Errorf("Link header %q must point at the successor config surface", link)
	}
	eff := decodeBody[Info](t, resp).Config
	if eff.Algorithm != "octree" || eff.DT != 0.002 || eff.Theta != 0.7 {
		t.Errorf("legacy fields not resolved into config echo: %+v", eff)
	}
	if eff.Eps != 1e-3 || eff.G != 1 {
		t.Errorf("legacy zero fields must inherit defaults: %+v", eff)
	}
}

func TestCreateSessionConfigPrecedence(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	// Config object wins over legacy flat fields; legacy fields the config
	// leaves unset still apply.
	resp := postJSON(t, srv.URL+"/v1/sessions",
		`{"workload":"plummer","n":64,"dt":0.002,"theta":0.7,"config":{"dt":0.004}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("mixed request still uses legacy fields, must carry Deprecation")
	}
	eff := decodeBody[Info](t, resp).Config
	if eff.DT != 0.004 {
		t.Errorf("config dt must win over legacy: %v", eff.DT)
	}
	if eff.Theta != 0.7 {
		t.Errorf("legacy theta must apply when config leaves it unset: %v", eff.Theta)
	}
}

func TestSnapshotUploadConfigQueryParam(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	// Source session to snapshot.
	resp := postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":32,"dt":0.001}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	src := decodeBody[Info](t, resp)
	snap, err := http.Get(srv.URL + "/v1/sessions/" + src.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Body.Close()

	q := url.Values{"config": {`{"algorithm":"bvh","dt":0.005,"eps":0}`}}
	up, err := http.Post(srv.URL+"/v1/sessions?"+q.Encode(), snapshotContentType, snap.Body)
	if err != nil {
		t.Fatal(err)
	}
	if up.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", up.StatusCode)
	}
	eff := decodeBody[Info](t, up).Config
	if eff.Algorithm != "bvh" || eff.DT != 0.005 || eff.Eps != 0 {
		t.Errorf("snapshot upload config not honoured: %+v", eff)
	}

	// A malformed config query param is a config error, not a generic 400.
	bad, err := http.Post(srv.URL+"/v1/sessions?config=%7Bnope", snapshotContentType, strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config query status %d", bad.StatusCode)
	}
	if e := decodeBody[errorResponse](t, bad); e.Error.Code != CodeInvalidConfig {
		t.Errorf("bad config query code %q, want %q", e.Error.Code, CodeInvalidConfig)
	}
}

func TestJobConfigSurface(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})

	// Config object: accepted, echoed resolved, no deprecation.
	resp := postJSON(t, srv.URL+"/v1/jobs",
		`{"workload":"plummer","n":48,"steps":4,"config":{"algorithm":"octree","dt":0.001,"eps":0}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if d := resp.Header.Get("Deprecation"); d != "" {
		t.Errorf("config-object job marked deprecated (%q)", d)
	}
	info := decodeBody[jobs.Info](t, resp)
	if info.Config.Algorithm != "octree" || info.Config.DT != 0.001 || info.Config.Eps != 0 {
		t.Errorf("job config echo %+v", info.Config)
	}

	// The explicit eps=0 really reaches the session the worker creates.
	done := waitJobState(t, srv, info.ID, jobs.StateSucceeded)
	sresp, err := http.Get(srv.URL + "/v1/sessions/" + done.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if eff := decodeBody[Info](t, sresp).Config; eff.Eps != 0 || eff.Algorithm != "octree" {
		t.Errorf("backing session config %+v", eff)
	}

	// Legacy flat fields: deprecation headers on the submit response.
	resp = postJSON(t, srv.URL+"/v1/jobs", `{"workload":"plummer","n":48,"dt":0.001,"steps":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("legacy submit status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy job fields must set the Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/v1/jobs#config") {
		t.Errorf("Link header %q", link)
	}
	decodeBody[jobs.Info](t, resp)

	// Invalid config fails with the stable invalid_config code.
	resp = postJSON(t, srv.URL+"/v1/jobs", `{"workload":"plummer","n":48,"steps":4,"config":{"dt":-1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config status %d", resp.StatusCode)
	}
	if e := decodeBody[errorResponse](t, resp); e.Error.Code != CodeInvalidConfig {
		t.Errorf("invalid config code %q, want %q", e.Error.Code, CodeInvalidConfig)
	}
}

// TestRemovedLayoutFieldRejected pins the contract for clients still
// sending the retired `config.layout` knob (both of its former values):
// session creates and job submits are rejected by the unknown-field check
// with the standard invalid_request envelope, not silently ignored.
func TestRemovedLayoutFieldRejected(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})

	for _, layout := range []string{"flat", "walk"} {
		for _, req := range []struct{ path, body string }{
			{"/v1/sessions", `{"workload":"plummer","n":48,"config":{"dt":0.001,"layout":"` + layout + `"}}`},
			{"/v1/jobs", `{"workload":"plummer","n":48,"steps":4,"config":{"dt":0.001,"layout":"` + layout + `"}}`},
		} {
			resp := postJSON(t, srv.URL+req.path, req.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with layout %q: status %d, want 400", req.path, layout, resp.StatusCode)
			}
			e := decodeBody[errorResponse](t, resp)
			if e.Error.Code != CodeInvalidRequest || !strings.Contains(e.Error.Message, "layout") {
				t.Errorf("%s with layout %q: envelope %+v, want %s naming the field", req.path, layout, e.Error, CodeInvalidRequest)
			}
		}
	}
}
