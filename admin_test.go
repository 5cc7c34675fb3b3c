package pqs_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pqs"
)

// TestAdminStatsEndpoint drives traffic through a TCP replica and checks the
// admin handler reports it: store keys and counters, transport frames, and
// codec activity.
func TestAdminStatsEndpoint(t *testing.T) {
	srv, err := pqs.ListenAndServe(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	tc, err := pqs.Dial(map[int]string{0: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	sys, err := pqs.New(pqs.Config{N: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(admin.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %s", resp.Status)
	}
	var st pqs.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.Addr != srv.Addr() || st.Codec != "binary" {
		t.Errorf("identity: %+v", st)
	}
	if st.Store.Keys != 1 || st.Store.Applies == 0 || st.Store.Gets == 0 {
		t.Errorf("store stats missing traffic: %+v", st.Store)
	}
	if st.Transport.FramesRead < 2 || st.Transport.FramesWritten < 2 || st.Transport.Conns != 1 {
		t.Errorf("transport stats missing traffic: %+v", st.Transport)
	}
	if st.WireCodec.MessagesEncoded == 0 || st.WireCodec.MessagesDecoded == 0 {
		t.Errorf("codec stats missing traffic: %+v", st.WireCodec)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime %v", st.UptimeSeconds)
	}

	health, err := http.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: %s", health.Status)
	}
}
