package graphdb

import (
	"testing"
)

// buildCircuitDB constructs the hierarchy shape CircuitMentor stores:
// Design -CONTAINS-> Modules, Module -INSTANTIATES-> Module.
func buildCircuitDB() *DB {
	db := New()
	design := db.CreateNode([]string{"Design"}, map[string]any{"name": "soc"})
	core := db.CreateNode([]string{"Module"}, map[string]any{
		"name": "core", "code": "module core(...); endmodule", "gates": int64(1200), "category": "processor",
	})
	alu := db.CreateNode([]string{"Module"}, map[string]any{
		"name": "alu", "code": "module alu(...); endmodule", "gates": int64(400), "category": "arithmetic",
	})
	fpu := db.CreateNode([]string{"Module"}, map[string]any{
		"name": "fpu", "code": "module fpu(...); endmodule", "gates": int64(900), "category": "arithmetic",
	})
	mem := db.CreateNode([]string{"Module"}, map[string]any{
		"name": "memctl", "code": "module memctl(...); endmodule", "gates": int64(300), "category": "memory",
	})
	db.CreateRel(design, core, "CONTAINS", nil)
	db.CreateRel(design, mem, "CONTAINS", nil)
	db.CreateRel(core, alu, "INSTANTIATES", nil)
	db.CreateRel(core, fpu, "INSTANTIATES", nil)
	return db
}

func TestCRUDAndFind(t *testing.T) {
	db := buildCircuitDB()
	if db.NodeCount() != 5 {
		t.Errorf("nodes = %d, want 5", db.NodeCount())
	}
	if db.RelCount() != 4 {
		t.Errorf("rels = %d, want 4", db.RelCount())
	}
	n := db.FindOne("Module", "name", "alu")
	if n == nil || n.Props["gates"] != int64(400) {
		t.Fatalf("FindOne(alu) = %+v", n)
	}
	arith := db.Find("Module", map[string]any{"category": "arithmetic"})
	if len(arith) != 2 {
		t.Errorf("arithmetic modules = %d, want 2", len(arith))
	}
	if db.FindOne("Module", "name", "nope") != nil {
		t.Error("FindOne should return nil for missing")
	}
}

func TestQueryByProperty(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (m:Module {name: 'alu'}) RETURN m.code, m.gates`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0] != "module alu(...); endmodule" {
		t.Errorf("code = %v", res.Rows[0][0])
	}
	if res.Rows[0][1] != int64(400) {
		t.Errorf("gates = %v", res.Rows[0][1])
	}
	if res.Columns[0] != "m.code" {
		t.Errorf("column name = %q", res.Columns[0])
	}
}

func TestQueryWithParams(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (m:Module {name: $mod}) RETURN m.code`, map[string]any{"mod": "fpu"})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Value(); v != "module fpu(...); endmodule" {
		t.Errorf("Value = %v", v)
	}
	if _, err := db.Query(`MATCH (m:Module {name: $missing}) RETURN m.code`, nil); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestQueryRelationship(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (c:Module {name: 'core'})-[:INSTANTIATES]->(s:Module) RETURN s.name ORDER BY s.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Strings("s.name")
	if len(names) != 2 || names[0] != "alu" || names[1] != "fpu" {
		t.Errorf("children = %v, want [alu fpu]", names)
	}
}

func TestQueryReverseRelationship(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (s:Module {name: 'alu'})<-[:INSTANTIATES]-(p:Module) RETURN p.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Value(); v != "core" {
		t.Errorf("parent = %v, want core", v)
	}
}

func TestQueryVariableLengthPath(t *testing.T) {
	db := buildCircuitDB()
	// Everything reachable from the design within 2 hops of any rel type.
	res, err := db.Query(`MATCH (d:Design)-[*1..2]->(m:Module) RETURN m.name ORDER BY m.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Strings("m.name")
	want := []string{"alu", "core", "fpu", "memctl"}
	if len(names) != len(want) {
		t.Fatalf("reachable = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("reachable[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	// One hop only: alu/fpu unreachable.
	res, err = db.Query(`MATCH (d:Design)-[*1..1]->(m:Module) RETURN m.name ORDER BY m.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := res.Strings("m.name"); len(names) != 2 {
		t.Errorf("1-hop reachable = %v, want 2 modules", names)
	}
}

func TestQueryWhere(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (m:Module) WHERE m.gates > 350 AND m.category = 'arithmetic' RETURN m.name ORDER BY m.gates DESC`, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Strings("m.name")
	if len(names) != 2 || names[0] != "fpu" || names[1] != "alu" {
		t.Errorf("filtered = %v, want [fpu alu]", names)
	}
	res, err = db.Query(`MATCH (m:Module) WHERE m.name CONTAINS 'ctl' OR m.gates >= 1200 RETURN m.name ORDER BY m.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	names = res.Strings("m.name")
	if len(names) != 2 || names[0] != "core" || names[1] != "memctl" {
		t.Errorf("filtered = %v, want [core memctl]", names)
	}
	res, err = db.Query(`MATCH (m:Module) WHERE NOT m.category = 'arithmetic' RETURN count(m)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value() != int64(2) {
		t.Errorf("count = %v, want 2", res.Value())
	}
}

func TestQueryCountAndLimit(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (m:Module) RETURN count(m)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value() != int64(4) {
		t.Errorf("count = %v, want 4", res.Value())
	}
	res, err = db.Query(`MATCH (m:Module) RETURN m.name ORDER BY m.gates DESC LIMIT 2`, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Strings("m.name")
	if len(names) != 2 || names[0] != "core" || names[1] != "fpu" {
		t.Errorf("top2 = %v, want [core fpu]", names)
	}
}

func TestQueryAlias(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (m:Module {name: 'alu'}) RETURN m.code AS source`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "source" {
		t.Errorf("alias = %q, want source", res.Columns[0])
	}
}

func TestCreateQuery(t *testing.T) {
	db := New()
	_, err := db.Query(`CREATE (a:Lib {name: 'NAND2_X1', area: 0.798})-[:VARIANT_OF]->(b:Gate {fn: 'NAND2'})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.NodeCount() != 2 || db.RelCount() != 1 {
		t.Fatalf("nodes %d rels %d, want 2/1", db.NodeCount(), db.RelCount())
	}
	n := db.FindOne("Lib", "name", "NAND2_X1")
	if n == nil || n.Props["area"] != 0.798 {
		t.Errorf("created node wrong: %+v", n)
	}
	res, err := db.Query(`MATCH (a:Lib)-[:VARIANT_OF]->(g:Gate) RETURN g.fn`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value() != "NAND2" {
		t.Errorf("fn = %v", res.Value())
	}
}

func TestQueryMultiPattern(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (d:Design)-[:CONTAINS]->(c:Module), (c)-[:INSTANTIATES]->(s:Module) RETURN s.name ORDER BY s.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Strings("s.name")
	if len(names) != 2 || names[0] != "alu" {
		t.Errorf("multi-pattern = %v", names)
	}
}

func TestQueryErrors(t *testing.T) {
	db := buildCircuitDB()
	bad := []string{
		`SELECT * FROM modules`,
		`MATCH (m:Module)`,                                     // no RETURN
		`MATCH m:Module RETURN m`,                              // missing parens
		`MATCH (m:Module) RETURN zz.name`,                      // unbound var
		`MATCH (m:Module) WHERE m.gates > 'abc' RETURN m.name`, // bad comparison
	}
	for _, q := range bad {
		if _, err := db.Query(q, nil); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestStartsWith(t *testing.T) {
	db := buildCircuitDB()
	res, err := db.Query(`MATCH (m:Module) WHERE m.name STARTS WITH 'mem' RETURN m.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value() != "memctl" {
		t.Errorf("starts-with = %v", res.Value())
	}
}

func TestRelFiltersAndAllNodes(t *testing.T) {
	db := buildCircuitDB()
	core := db.FindOne("Module", "name", "core")
	if n := len(core.Out("INSTANTIATES")); n != 2 {
		t.Errorf("core out INSTANTIATES = %d, want 2", n)
	}
	if n := len(core.Out("")); n != 2 {
		t.Errorf("core out all = %d, want 2", n)
	}
	if n := len(core.In("CONTAINS")); n != 1 {
		t.Errorf("core in CONTAINS = %d, want 1", n)
	}
	if n := len(core.In("INSTANTIATES")); n != 0 {
		t.Errorf("core in INSTANTIATES = %d, want 0", n)
	}
	all := db.AllNodes()
	if len(all) != db.NodeCount() {
		t.Error("AllNodes count mismatch")
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatal("AllNodes not sorted by ID")
		}
	}
	if db.Node(all[0].ID) != all[0] {
		t.Error("Node lookup by ID broken")
	}
	if db.Node(99999) != nil {
		t.Error("unknown ID should be nil")
	}
	byLabel := db.ByLabel("Module")
	if len(byLabel) != 4 {
		t.Errorf("ByLabel(Module) = %d, want 4", len(byLabel))
	}
	if len(db.ByLabel("Nope")) != 0 {
		t.Error("unknown label should be empty")
	}
}

func TestNumericCoercion(t *testing.T) {
	db := New()
	db.CreateNode([]string{"N"}, map[string]any{"v": int64(5)})
	db.CreateNode([]string{"N"}, map[string]any{"v": 5.0})
	db.CreateNode([]string{"N"}, map[string]any{"v": int(5)})
	res, err := db.Query(`MATCH (n:N) WHERE n.v = 5 RETURN count(n)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value() != int64(3) {
		t.Errorf("numeric coercion failed: count = %v", res.Value())
	}
}
