package main

import "testing"

func TestReportURL(t *testing.T) {
	for _, ctrl := range []string{"http://vip:8080", "http://vip:8080/"} {
		if got := reportURL("", ctrl); got != "http://vip:8080/telemetry/report" {
			t.Errorf("reportURL(\"\", %q) = %q", ctrl, got)
		}
	}
	const one = "http://10.0.0.7:8080/telemetry/report"
	if got := reportURL(one, "http://vip:8080"); got != one {
		t.Errorf("reportURL(%q, vip) = %q", one, got)
	}
}

func TestScopeFromName(t *testing.T) {
	for name, want := range map[string]string{
		"DC1-ps00-pod00-s00": "DC1.ps00.pod00",
		"DC1-ps02-pod11-s7":  "DC1.ps02.pod11",
		"web-frontend-3":     "",
		"localhost":          "",
	} {
		if got := scopeFromName(name); got != want {
			t.Errorf("scopeFromName(%q) = %q, want %q", name, got, want)
		}
	}
}
