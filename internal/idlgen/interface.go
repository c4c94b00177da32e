package idlgen

import (
	"fmt"
	"strings"

	"repro/internal/idl"
)

// opModel is the analyzed shape of one operation, shared by the client and
// server generators.
type opModel struct {
	op       *idl.Operation
	goName   string
	scalars  []scalarParam // non-distributed params, declaration order
	dists    []distParam   // distributed params, declaration order
	retScal  *scalarInfo   // non-void scalar return
	retDist  *distParam    // distributed return (appended as a trailing Out arg)
	raises   []*idl.Exception
	excNames []string // Go type names of raised exceptions
}

type scalarParam struct {
	name string
	dir  idl.ParamDir
	info scalarInfo
}

type distParam struct {
	name string
	dir  idl.ParamDir
	elem elemInfo
	spec string // dist.Spec expression
	ds   *idl.DSequence
}

func coreDir(d idl.ParamDir) string {
	switch d {
	case idl.DirIn:
		return "core.In"
	case idl.DirOut:
		return "core.Out"
	default:
		return "core.InOut"
	}
}

func (g *generator) buildOpModel(prefix string, iface *idl.Interface, op *idl.Operation) (*opModel, bool) {
	m := &opModel{op: op, goName: goName(op.Name)}
	for _, p := range op.Params {
		if ds := idl.ResolveDSequence(p.Type); ds != nil {
			elem, err := dseqElem(ds.Elem)
			if err != nil {
				g.fail(p.Pos, "%s.%s: %v", iface.Name, op.Name, err)
				return nil, false
			}
			m.dists = append(m.dists, distParam{name: goLocal(p.Name), dir: p.Dir, elem: elem, spec: distSpecExpr(ds), ds: ds})
			continue
		}
		sc, ok := g.scalarFor(prefix, p.Type, p.Pos)
		if !ok {
			g.fail(p.Pos, "%s.%s: unsupported parameter type %s", iface.Name, op.Name, p.Type.TypeName())
			return nil, false
		}
		m.scalars = append(m.scalars, scalarParam{name: goLocal(p.Name), dir: p.Dir, info: sc})
	}
	if op.Returns != nil {
		if ds := idl.ResolveDSequence(op.Returns); ds != nil {
			elem, err := dseqElem(ds.Elem)
			if err != nil {
				g.fail(op.Pos, "%s.%s: %v", iface.Name, op.Name, err)
				return nil, false
			}
			// "The distribution of return values is always assumed to be
			// blockwise" (§2.2).
			m.retDist = &distParam{name: "result", dir: idl.DirOut, elem: elem, spec: "nil", ds: ds}
		} else {
			sc, ok := g.scalarFor(prefix, op.Returns, op.Pos)
			if !ok {
				g.fail(op.Pos, "%s.%s: unsupported return type %s", iface.Name, op.Name, op.Returns.TypeName())
				return nil, false
			}
			m.retScal = &sc
		}
	}
	m.raises = op.RaisesRefs
	for _, e := range m.raises {
		m.excNames = append(m.excNames, prefix+goName(e.Name))
	}
	return m, true
}

// allOps flattens inherited operations (bases first, then own).
func allOps(iface *idl.Interface) []*idl.Operation {
	var out []*idl.Operation
	seen := map[string]bool{}
	var walk func(i *idl.Interface)
	walk = func(i *idl.Interface) {
		for _, b := range i.BaseRefs {
			walk(b)
		}
		for _, op := range i.Ops {
			if !seen[op.Name] {
				seen[op.Name] = true
				out = append(out, op)
			}
		}
	}
	walk(iface)
	return out
}

// distArgsExpr renders the []core.ArgDesc literal for an op.
func (m *opModel) argDescs() string {
	var parts []string
	for _, d := range m.dists {
		parts = append(parts, fmt.Sprintf("{Name: %q, Dir: %s, Elem: %q, Spec: %s}", d.name, coreDir(d.dir), d.elem.elemName, d.spec))
	}
	if m.retDist != nil {
		parts = append(parts, fmt.Sprintf("{Name: \"_return\", Dir: core.Out, Elem: %q, Spec: nil}", m.retDist.elem.elemName))
	}
	if len(parts) == 0 {
		return "nil"
	}
	return "[]core.ArgDesc{" + strings.Join(parts, ", ") + "}"
}

func (g *generator) interfaceDef(prefix string, iface *idl.Interface) {
	// Nested definitions first (types the operations may reference).
	g.walk(prefix+goName(iface.Name), iface.Defs)
	if g.err != nil {
		return
	}
	name := prefix + goName(iface.Name)
	ops := allOps(iface)
	models := make([]*opModel, 0, len(ops))
	for _, op := range ops {
		m, ok := g.buildOpModel(prefix, iface, op)
		if !ok {
			return
		}
		models = append(models, m)
	}

	g.p("")
	g.p("// Repo%s is the repository id of interface %s.", name, iface.Name)
	g.p("const Repo%s = %q", name, iface.RepoID)

	g.clientStub(name, iface, models)
	g.serverSkeleton(name, iface, models)
}

func (g *generator) clientStub(name string, iface *idl.Interface, models []*opModel) {
	g.p("")
	g.p("// %sClient is the client stub for interface %s (the PARDIS::Object", name, iface.Name)
	g.p("// proxy of paper §2.1).")
	g.p("type %sClient struct {", name)
	g.p("\tBinding *core.Binding")
	g.p("}")
	g.p("")
	g.p("// SPMDBind%s is the collective _spmd_bind: all computing threads of", name)
	g.p("// comm bind to the named object as one entity.")
	g.p("func SPMDBind%s(comm *rts.Comm, objName, nameServer string, opts ...core.BindOptions) (%sClient, error) {", name, name)
	g.p("\to := bindOpts(Repo%s, opts)", name)
	g.p("\tb, err := core.SPMDBind(comm, objName, nameServer, o)")
	g.p("\treturn %sClient{Binding: b}, err", name)
	g.p("}")
	g.p("")
	g.p("// Bind%s is the non-collective _bind: the calling thread gets its own", name)
	g.p("// independent binding using the non-distributed mapping.")
	g.p("func Bind%s(objName, nameServer string, opts ...core.BindOptions) (%sClient, error) {", name, name)
	g.p("\to := bindOpts(Repo%s, opts)", name)
	g.p("\tb, err := core.Bind(objName, nameServer, o)")
	g.p("\treturn %sClient{Binding: b}, err", name)
	g.p("}")
	g.p("")
	g.p("// SPMDBindRef%s binds to a reference obtained out of band.", name)
	g.p("func SPMDBindRef%s(comm *rts.Comm, ref orb.IOR, opts ...core.BindOptions) (%sClient, error) {", name, name)
	g.p("\to := bindOpts(Repo%s, opts)", name)
	g.p("\tb, err := core.SPMDBindRef(comm, ref, o)")
	g.p("\treturn %sClient{Binding: b}, err", name)
	g.p("}")

	for _, m := range models {
		g.clientMethod(name, m)
		g.clientMethodNB(name, m)
	}

	// Exception mapping helper.
	g.p("")
	g.p("func map%sError(err error) error {", name)
	g.p("\tif err == nil {")
	g.p("\t\treturn nil")
	g.p("\t}")
	excs := map[string]bool{}
	var lines []string
	for _, m := range models {
		for i, e := range m.raises {
			goExc := m.excNames[i]
			if !excs[goExc] {
				excs[goExc] = true
				lines = append(lines, fmt.Sprintf("\tcase Repo%s:\n\t\treturn decode%s(ue)", goExc, goExc), goExc)
				_ = e
			}
		}
	}
	if len(lines) > 0 {
		g.p("\tvar ue *orb.UserException")
		g.p("\tif !errors.As(err, &ue) {")
		g.p("\t\treturn err")
		g.p("\t}")
		g.p("\tswitch ue.RepoID {")
		for i := 0; i < len(lines); i += 2 {
			g.p("%s", lines[i])
		}
		g.p("\t}")
	}
	g.p("\treturn err")
	g.p("}")
}

// methodParams renders the Go parameter list of a client method.
func (m *opModel) methodParams() string {
	var parts []string
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirIn:
			parts = append(parts, fmt.Sprintf("%s %s", s.name, s.info.goType))
		case idl.DirInOut:
			parts = append(parts, fmt.Sprintf("%s *%s", s.name, s.info.goType))
		}
	}
	for _, d := range m.dists {
		parts = append(parts, fmt.Sprintf("%s *dseq.Seq[%s]", d.name, d.elem.goType))
	}
	return strings.Join(parts, ", ")
}

// methodResults renders the Go result list (out scalars, scalar return,
// dist return, error).
func (m *opModel) methodResults() string {
	var parts []string
	for _, s := range m.scalars {
		if s.dir == idl.DirOut {
			parts = append(parts, fmt.Sprintf("%s %s", s.name, s.info.goType))
		}
	}
	if m.retScal != nil {
		parts = append(parts, "result "+m.retScal.goType)
	}
	if m.retDist != nil {
		parts = append(parts, fmt.Sprintf("result *dseq.Seq[%s]", m.retDist.elem.goType))
	}
	parts = append(parts, "err error")
	return "(" + strings.Join(parts, ", ") + ")"
}

func (m *opModel) distArgsCall(extraRet string) string {
	var parts []string
	for _, d := range m.dists {
		switch d.dir {
		case idl.DirIn:
			parts = append(parts, fmt.Sprintf("core.InSeq(%s)", d.name))
		case idl.DirOut:
			parts = append(parts, fmt.Sprintf("core.OutSeq(%s)", d.name))
		default:
			parts = append(parts, fmt.Sprintf("core.InOutSeq(%s)", d.name))
		}
	}
	if m.retDist != nil {
		parts = append(parts, fmt.Sprintf("core.OutSeq(%s)", extraRet))
	}
	if len(parts) == 0 {
		return "nil"
	}
	return "[]core.DistArg{" + strings.Join(parts, ", ") + "}"
}

func (g *generator) clientMethod(name string, m *opModel) {
	g.p("")
	g.p("// %s invokes the IDL operation %s collectively.", m.goName, m.op.Name)
	g.p("func (c %sClient) %s(%s) %s {", name, m.goName, m.methodParams(), m.methodResults())
	g.p("\tenc := core.ScalarEncoder()")
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirIn:
			g.p("\t%s", s.info.write("enc", s.name))
		case idl.DirInOut:
			g.p("\t%s", s.info.write("enc", "*"+s.name))
		}
	}
	if m.retDist != nil {
		g.p("\tresult, err = dseq.New(c.Binding.Comm(), %s, 0, nil)", m.retDist.elem.codec)
		g.p("\tif err != nil {")
		g.p("\t\treturn")
		g.p("\t}")
	}
	g.p("\treply, ierr := c.Binding.Invoke(%q, enc.Bytes(), %s)", m.op.Name, m.distArgsCall("result"))
	g.p("\tif ierr != nil {")
	g.p("\t\terr = map%sError(ierr)", name)
	g.p("\t\treturn")
	g.p("\t}")
	if m.hasScalarResults() {
		g.p("\tdec, derr := core.ScalarDecoder(reply)")
		g.p("\tif derr != nil {")
		g.p("\t\terr = derr")
		g.p("\t\treturn")
		g.p("\t}")
		g.decodeScalarResults(m, "dec")
	} else {
		g.p("\t_ = reply")
	}
	g.p("\treturn")
	g.p("}")
}

func (m *opModel) hasScalarResults() bool {
	if m.retScal != nil {
		return true
	}
	for _, s := range m.scalars {
		if s.dir != idl.DirIn {
			return true
		}
	}
	return false
}

// decodeScalarResults emits reads for inout/out scalars and the scalar
// return, in wire order (inout+out in declaration order, then return).
func (g *generator) decodeScalarResults(m *opModel, dec string) {
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirInOut:
			g.p("\tif *%s, err = %s; err != nil {", s.name, s.info.read(dec))
			g.p("\t\treturn")
			g.p("\t}")
		case idl.DirOut:
			g.p("\tif %s, err = %s; err != nil {", s.name, s.info.read(dec))
			g.p("\t\treturn")
			g.p("\t}")
		}
	}
	if m.retScal != nil {
		g.p("\tif result, err = %s; err != nil {", m.retScal.read(dec))
		g.p("\t\treturn")
		g.p("\t}")
	}
}

func (g *generator) clientMethodNB(name string, m *opModel) {
	// Futures make no sense for a distributed return the caller has no
	// handle on before completion; generate NB with the result sequence as
	// an explicit argument in that case.
	g.p("")
	g.p("// %sNB is the non-blocking form of %s, returning a future (the", m.goName, m.goName)
	g.p("// paper's %s_nb). Scalar results, if any, can be decoded from the", m.op.Name)
	g.p("// future's payload with core.ScalarDecoder.")
	params := m.methodParams()
	if m.retDist != nil {
		if params != "" {
			params += ", "
		}
		params += fmt.Sprintf("result *dseq.Seq[%s]", m.retDist.elem.goType)
	}
	g.p("func (c %sClient) %sNB(%s) *core.Future {", name, m.goName, params)
	g.p("\tenc := core.ScalarEncoder()")
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirIn:
			g.p("\t%s", s.info.write("enc", s.name))
		case idl.DirInOut:
			g.p("\t%s", s.info.write("enc", "*"+s.name))
		}
	}
	g.p("\treturn c.Binding.InvokeNB(%q, enc.Bytes(), %s)", m.op.Name, m.distArgsCall("result"))
	g.p("}")
}

func (g *generator) serverSkeleton(name string, iface *idl.Interface, models []*opModel) {
	g.p("")
	g.p("// %sImpl is the server-side implementation interface for %s; the", name, iface.Name)
	g.p("// skeleton invokes these methods collectively on every computing thread")
	g.p("// (the CORBA inheritance mapping of paper §2.1).")
	g.p("type %sImpl interface {", name)
	for _, m := range models {
		g.p("\t%s(%s) %s", m.goName, m.implParams(), m.implResults())
	}
	g.p("}")

	g.p("")
	g.p("// %sOperations builds the engine operation table for impl.", name)
	g.p("func %sOperations(impl %sImpl) []core.Operation {", name, name)
	g.p("\treturn []core.Operation{")
	for _, m := range models {
		g.serverOperation(name, m)
	}
	g.p("\t}")
	g.p("}")

	g.p("")
	g.p("// Export%s registers impl as an SPMD object on every computing thread", name)
	g.p("// of comm. The repository id defaults to Repo%s.", name)
	g.p("func Export%s(comm *rts.Comm, impl %sImpl, opts core.ExportOptions) (*core.Object, error) {", name, name)
	g.p("\tif opts.TypeID == \"\" {")
	g.p("\t\topts.TypeID = Repo%s", name)
	g.p("\t}")
	g.p("\treturn core.Export(comm, opts, %sOperations(impl))", name)
	g.p("}")
}

func (m *opModel) implParams() string {
	parts := []string{"call *core.ServerCall"}
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirIn:
			parts = append(parts, fmt.Sprintf("%s %s", s.name, s.info.goType))
		case idl.DirInOut:
			parts = append(parts, fmt.Sprintf("%s *%s", s.name, s.info.goType))
		}
	}
	for _, d := range m.dists {
		parts = append(parts, fmt.Sprintf("%s *dseq.Seq[%s]", d.name, d.elem.goType))
	}
	if m.retDist != nil {
		parts = append(parts, fmt.Sprintf("result *dseq.Seq[%s]", m.retDist.elem.goType))
	}
	return strings.Join(parts, ", ")
}

func (m *opModel) implResults() string {
	var parts []string
	for _, s := range m.scalars {
		if s.dir == idl.DirOut {
			parts = append(parts, fmt.Sprintf("%s %s", s.name, s.info.goType))
		}
	}
	if m.retScal != nil {
		parts = append(parts, "result "+m.retScal.goType)
	}
	parts = append(parts, "err error")
	return "(" + strings.Join(parts, ", ") + ")"
}

func (g *generator) serverOperation(name string, m *opModel) {
	g.p("\t\t{")
	g.p("\t\t\tDesc: core.OpDesc{Name: %q, Args: %s},", m.op.Name, m.argDescs())
	// Empty Block sequences, which New cannot fail to make: the object resets
	// each to the call's length on the template Desc advertises.
	g.p("\t\t\tNewArgs: func(comm *rts.Comm) ([]dseq.Transferable, error) {")
	var seqs []string
	emit := func(d distParam) {
		seqs = append(seqs, fmt.Sprintf("s%d", len(seqs)))
		g.p("\t\t\t\t%s, _ := dseq.New(comm, %s, 0, nil) // empty and Block: cannot fail", seqs[len(seqs)-1], d.elem.codec)
	}
	for _, d := range m.dists {
		emit(d)
	}
	if m.retDist != nil {
		emit(*m.retDist)
	}
	g.p("\t\t\t\treturn []dseq.Transferable{%s}, nil", strings.Join(seqs, ", "))
	g.p("\t\t\t},")
	g.p("\t\t\tHandler: func(call *core.ServerCall) error {")
	// Decode scalars.
	for _, s := range m.scalars {
		if s.dir == idl.DirOut {
			continue
		}
		g.p("\t\t\t\t%s, err := %s", s.name, s.info.read("call.In"))
		g.p("\t\t\t\tif err != nil {")
		g.p("\t\t\t\t\treturn orb.Marshal(err)")
		g.p("\t\t\t\t}")
	}
	// Typed sequence views.
	args := []string{"call"}
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirIn:
			args = append(args, s.name)
		case idl.DirInOut:
			args = append(args, "&"+s.name)
		}
	}
	for i, d := range m.dists {
		g.p("\t\t\t\t%sSeq := core.ArgSeq[%s](call, %d)", d.name, d.elem.goType, i)
		args = append(args, d.name+"Seq")
	}
	if m.retDist != nil {
		g.p("\t\t\t\tresultSeq := core.ArgSeq[%s](call, %d)", m.retDist.elem.goType, len(m.dists))
		args = append(args, "resultSeq")
	}
	// Call the implementation.
	var rets []string
	for _, s := range m.scalars {
		if s.dir == idl.DirOut {
			rets = append(rets, s.name)
		}
	}
	if m.retScal != nil {
		rets = append(rets, "result")
	}
	rets = append(rets, "herr")
	g.p("\t\t\t\t%s := impl.%s(%s)", strings.Join(rets, ", "), m.goName, strings.Join(args, ", "))
	g.p("\t\t\t\tif herr != nil {")
	for i, exc := range m.excNames {
		g.p("\t\t\t\t\tvar exc%d *%s", i, exc)
		g.p("\t\t\t\t\tif errors.As(herr, &exc%d) {", i)
		g.p("\t\t\t\t\t\treturn exc%d.toUserException()", i)
		g.p("\t\t\t\t\t}")
	}
	g.p("\t\t\t\t\treturn herr")
	g.p("\t\t\t\t}")
	// Encode scalar results in wire order.
	for _, s := range m.scalars {
		switch s.dir {
		case idl.DirInOut:
			g.p("\t\t\t\t%s", s.info.write("call.Out", s.name))
		case idl.DirOut:
			g.p("\t\t\t\t%s", s.info.write("call.Out", s.name))
		}
	}
	if m.retScal != nil {
		g.p("\t\t\t\t%s", m.retScal.write("call.Out", "result"))
	}
	g.p("\t\t\t\treturn nil")
	g.p("\t\t\t},")
	g.p("\t\t},")
}
