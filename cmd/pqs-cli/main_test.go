package main

import (
	"strings"
	"testing"
)

func TestParseServers(t *testing.T) {
	addrs, err := parseServers("0=127.0.0.1:7000,1=10.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "127.0.0.1:7000" || addrs[1] != "10.0.0.1:7001" {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestParseServersErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "required"},
		{"noequals", "bad server spec"},
		{"x=1.2.3.4:5", "bad server id"},
		{"1", "bad server spec"},
		{"0=a:1,0=b:1", "id 0 listed twice"},
		{"0=a:1,2=b:1", "id 1 is missing"},
		{"1=a:1,2=b:1", "id 0 is missing"},
	}
	for _, c := range cases {
		if _, err := parseServers(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseServers(%q) = %v, want an error containing %q", c.in, err, c.want)
		}
	}
}
