package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// runMainEnv makes the test binary act as the fsr command: TestCLIGolden
// re-executes itself with it set, so each case runs main with its own
// arguments, exit code and standard streams.
const runMainEnv = "FSR_CLI_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCase is one command line whose output is pinned in
// testdata/<name>.golden.
type cliCase struct {
	name string
	args []string
}

func cliCases() []cliCase {
	var cases []cliCase
	inputs := []struct{ name, flag, value string }{
		{"goodgadget", "-spp", "goodgadget"},
		{"badgadget", "-spp", "badgadget"},
		{"disagree", "-spp", "disagree"},
		{"fig3", "-spp", "fig3"},
		{"fig3-fixed", "-spp", "fig3-fixed"},
		{"chain-12", "-spp", "chain:12"},
		{"internet-300", "-spp", "internet:300"},
		{"config-disagree", "-config", "testdata/disagree.conf"},
		{"config-missing-link", "-config", "testdata/missing-link.conf"},
	}
	for _, cmd := range []string{"analyze", "compile", "yices"} {
		for _, in := range inputs {
			cases = append(cases, cliCase{cmd + "-" + in.name, []string{cmd, in.flag, in.value}})
		}
	}
	for _, g := range []string{"goodgadget", "badgadget", "disagree", "fig3", "fig3-fixed"} {
		cases = append(cases, cliCase{"run-ndlog-" + g,
			[]string{"run", "-runner", "sim-ndlog", "-horizon", "2s", "-gadget", g}})
	}
	cases = append(cases, cliCase{"run-ndlog-churn",
		[]string{"run", "-runner", "sim-ndlog", "-churn", "-gadget", "fig3-fixed"}})
	for _, e := range []string{"table1", "fig3", "vic"} {
		cases = append(cases, cliCase{"experiment-" + e, []string{"experiment", e}})
	}
	return cases
}

// TestCLIGolden holds the exit code, stdout and stderr of the commands a
// reader of the paper runs first — analysis, compilation and the solver
// encoding of SPP gadgets and configurations, interpreted runs and the
// fast experiments — byte for byte. Run with -update to rewrite the
// goldens after an intended change of output.
func TestCLIGolden(t *testing.T) {
	for _, c := range cliCases() {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.Bytes(), stderr.Bytes())
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("fsr %s: line %d differs from %s\n got: %q\nwant: %q",
							strings.Join(c.args, " "), i+1, path, g, w)
					}
				}
			}
		})
	}
}
