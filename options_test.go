package muzha_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"muzha"
	"muzha/internal/scenario"
)

// reach names one thing, outside the run plumbing, the spec compiler
// and the option's own unit tests, that sets a Config option. Exactly
// one field is set.
type reach struct {
	// family is a Registry family (with the claim checks it decides):
	// one of its cells sets the option away from DefaultConfig's value.
	family string
	// fn is "file.go:Func", relative to the repository root: an oracle
	// or property test (or the helper that builds its configs), or a
	// perfbench workload's set-up, whose body names the option.
	fn string
	// spec is a committed scenario spec whose compiled Config sets the
	// option away from DefaultConfig's value.
	spec string
}

// optionReach declares, for every wire field of Config keyed by its
// json tag, what reaches it. A new option must add its line here.
// MSS and QueueLimit are Table 5.1 values every run carries; their
// reach is the test that pins them to the paper (and, for the queue,
// the randomized stress test that varies it).
var optionReach = map[string]reach{
	"topology":                  {family: "fig5.8-5.10"},
	"flows":                     {family: "fig5.8-5.10"},
	"duration_ns":               {family: "fig5.2-5.7"},
	"seed":                      {family: "fig5.16-5.18"},
	"mss":                       {fn: "muzha_test.go:TestDefaultsMatchPaperTable5_1"},
	"window":                    {family: "fig5.8-5.10"},
	"delayed_ack_ns":            {spec: "internal/chaoscov/testdata/snduna-past-sndnxt.json"},
	"queue_limit":               {fn: "muzha_test.go:TestStressRandomScenarios"},
	"use_red":                   {family: "ablation.queue"},
	"red_mark_ecn":              {family: "modern"},
	"pacing":                    {fn: "perfbench/mix.go:mixTemplates"},
	"packet_error_rate":         {family: "table4.1"},
	"residual_loss_rate":        {family: "sec4.7"},
	"disable_rts_cts":           {family: "ablation.rtscts"},
	"use_dsr":                   {family: "ablation.routing"},
	"expanding_ring":            {fn: "perfbench/sim.go:setupIslands"},
	"router_assist":             {family: "modern"},
	"drai":                      {family: "ablation.drai-levels"},
	"muzha_loss_discrimination": {family: "sec4.7"},
	"drai_clamp":                {family: "modern"},
	"throughput_bin_ns":         {family: "fig5.19-5.22"},
	"trace_cwnd":                {family: "fig5.2-5.7"},
	"background":                {family: "extension.background"},
	"mobility":                  {family: "extension.mobility"},
	"faults":                    {family: "modern"},
	"guards":                    {fn: "perfbench/sim.go:setupIslands"},
}

// TestEveryOptionIsReached walks Config's wire fields and checks each
// against optionReach: a field missing from the table fails, as does a
// table entry for no field, and every declared reach must still set or
// name its field.
func TestEveryOptionIsReached(t *testing.T) {
	families := make(map[string]*muzha.Experiment)
	for _, e := range muzha.Registry() {
		families[e.Name] = e
	}
	def := reflect.ValueOf(muzha.DefaultConfig())
	// differs reports whether cfg sets field i away from its default.
	differs := func(cfg muzha.Config, i int) bool {
		return !reflect.DeepEqual(reflect.ValueOf(cfg).Field(i).Interface(), def.Field(i).Interface())
	}

	typ := def.Type()
	seen := make(map[string]bool)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || key == "-" {
			continue
		}
		seen[key] = true
		r, ok := optionReach[key]
		if !ok {
			t.Errorf("option %s (%q) names nothing that reaches it: add it to optionReach", f.Name, key)
			continue
		}
		switch {
		case r.family != "":
			e := families[r.family]
			if e == nil {
				t.Errorf("option %s: no registry family %q", f.Name, r.family)
				continue
			}
			set := false
			for _, c := range e.Cells {
				set = set || differs(c, i)
			}
			if !set {
				t.Errorf("option %s: no cell of family %q sets it", f.Name, r.family)
			}
		case r.fn != "":
			if !funcNames(t, r.fn, f.Name) {
				t.Errorf("option %s: %s does not name it", f.Name, r.fn)
			}
		case r.spec != "":
			s, err := scenario.Load(r.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.Config()
			if err != nil {
				t.Fatal(err)
			}
			if !differs(cfg, i) {
				t.Errorf("option %s: spec %s does not set it", f.Name, r.spec)
			}
		default:
			t.Errorf("option %s: empty reach", f.Name)
		}
	}
	var stale []string
	for key := range optionReach {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("optionReach names options Config does not have: %v", stale)
	}
}

// funcNames reports whether the function loc ("file.go:Func") selects
// or assigns a field called name: cfg.Name or Name: in a literal.
func funcNames(t *testing.T, loc, name string) bool {
	t.Helper()
	file, fn, _ := strings.Cut(loc, ":")
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn || fd.Recv != nil {
			continue
		}
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				found = found || n.Sel.Name == name
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					found = found || id.Name == name
				}
			}
			return !found
		})
		return found
	}
	t.Fatalf("%s: no function %s", file, fn)
	return false
}
