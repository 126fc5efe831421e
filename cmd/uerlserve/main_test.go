package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uerl "repro"
)

const (
	specDir   = "../../scenarios"
	goldenDir = "../../scenarios/golden"
)

// Every named scenario served through the CLI prints exactly its golden
// summary bytes: uerlserve adds nothing to, and drops nothing from, the
// harness run.
func TestRunJSONMatchesGoldens(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no scenario specs under %s (err %v)", specDir, err)
	}
	for _, spec := range specs {
		name := strings.TrimSuffix(filepath.Base(spec), ".json")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run([]string{"-scenario", spec, "-json"}, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(goldenDir, name+".summary.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("-json output diverged from the %s golden.\n--- got ---\n%s--- want ---\n%s", name, out.Bytes(), want)
			}
		})
	}
}

// The chain probe: serving a saved Always artifact reproduces the
// spec's run (its initial policy is Always too), and -save writes the
// promoted model chained to the artifact it replaced.
func TestRunModelSaveChain(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "always.json")
	if err := uerl.SaveModelFile(in, uerl.AlwaysPolicy()); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "final.json")
	var out bytes.Buffer
	args := []string{"-scenario", filepath.Join(specDir, "manufacturer-shift.json"), "-json", "-model", in, "-save", final}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "manufacturer-shift.summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-model run diverged from the golden.\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
	p, err := uerl.LoadModelFile(final)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Version(); got != "rl.v1.9698f5d061ba1752" {
		t.Errorf("saved model version %s, want the golden's serving version", got)
	}
	if got := uerl.ModelParent(p); got != "always.v1" {
		t.Errorf("saved model parent %q, want always.v1", got)
	}
}

// The text report carries the fleet section for a serving scenario.
func TestRunTextReportsFleet(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", filepath.Join(specDir, "worker-loss.json")}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario worker-loss:", "fleet: 3 workers, failovers=1 rejoins=1", "  worker 2:", "lineage: always.v1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(specDir, "manufacturer-shift.json")

	tampered := filepath.Join(dir, "tampered.json")
	if err := uerl.SaveModelFile(tampered, uerl.AlwaysPolicy()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"always.v1"`)) {
		t.Fatalf("artifact carries no always.v1 version to tamper with:\n%s", data)
	}
	data = bytes.Replace(data, []byte(`"always.v1"`), []byte(`"always.v9"`), 1)
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}

	unknown := filepath.Join(dir, "unknown.json")
	raw, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"seed":`), []byte(`"nodez": 4, "seed":`), 1)
	if err := os.WriteFile(unknown, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing scenario", []string{"-json"}, "-scenario is required"},
		{"unknown flag", []string{"-scenario", spec, "-workers", "3"}, "flag provided but not defined"},
		{"nonexistent model", []string{"-scenario", spec, "-model", filepath.Join(dir, "nope.json")}, "no such file"},
		{"tampered model", []string{"-scenario", spec, "-model", tampered}, "does not match its payload"},
		{"unknown spec field", []string{"-scenario", unknown}, "unknown field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("failed run wrote to stdout:\n%s", out.String())
			}
		})
	}
}
