package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	"comparisondiag/internal/serve"
)

func TestParseArgs(t *testing.T) {
	defaults := serve.Config{RegistryCap: 8, MaxBatch: 64, CacheCap: 1024}
	cases := []struct {
		name    string
		args    []string
		cfg     serve.Config
		preload []string
		wantErr bool
	}{
		{name: "defaults", cfg: defaults},
		{
			name:    "repeated preload",
			args:    []string{"-preload", "q:14", "-preload", "implicit:q:20"},
			cfg:     defaults,
			preload: []string{"q:14", "implicit:q:20"},
		},
		{
			name:    "comma-separated preload",
			args:    []string{"-preload", "q:8, star:5,", "-preload", "implicit:q:20"},
			cfg:     defaults,
			preload: []string{"q:8", "star:5", "implicit:q:20"},
		},
		{name: "window 0", args: []string{"-window", "0"}, cfg: defaults},
		{
			name: "window linger",
			args: []string{"-window", "500ms"},
			cfg:  serve.Config{RegistryCap: 8, Window: 500 * time.Millisecond, MaxBatch: 64, CacheCap: 1024},
		},
		{
			name: "max-batch 1",
			args: []string{"-max-batch", "1"},
			cfg:  serve.Config{RegistryCap: 8, MaxBatch: 1, CacheCap: 1024},
		},
		{
			name: "cache 0 disables",
			args: []string{"-cache", "0", "-workers", "3"},
			cfg:  serve.Config{RegistryCap: 8, MaxBatch: 64, Workers: 3, CacheCap: -1},
		},
		{name: "negative window", args: []string{"-window", "-1ms"}, wantErr: true},
		{name: "negative workers", args: []string{"-workers", "-1"}, wantErr: true},
		{name: "negative cache", args: []string{"-cache", "-5"}, wantErr: true},
		{name: "zero max-batch", args: []string{"-max-batch", "0"}, wantErr: true},
		{name: "zero registry", args: []string{"-registry", "0"}, wantErr: true},
		{name: "stray argument", args: []string{"q:8"}, wantErr: true},
		{name: "unknown flag", args: []string{"-no-coalesce"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(tc.args, io.Discard)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted %v: %+v", tc.args, o)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected %v: %v", tc.args, err)
			}
			if o.cfg != tc.cfg {
				t.Errorf("config = %+v, want %+v", o.cfg, tc.cfg)
			}
			if !reflect.DeepEqual(o.preload, tc.preload) {
				t.Errorf("preload = %q, want %q", o.preload, tc.preload)
			}
			if o.addr != "127.0.0.1:7133" {
				t.Errorf("addr = %q", o.addr)
			}
		})
	}
}
