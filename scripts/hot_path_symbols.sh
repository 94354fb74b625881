#!/bin/sh
# Hot-path symbol gate.  The pass scheduler's inner loop (Ready_heap ->
# Scheduler.run_pass -> Binding.try_bind -> Netlist, Screen and the timing
# Graph, with the structural cycle check and the graph kernels) compares
# only typed values: ints and floats compare inline, lists of ints go
# through List.memq/Int.compare.
# Scheduler is checked whole, its set-up and relaxation loop included, and
# so are the per-pass analyses it calls: Asap_alap's sweeps, Restraint's
# proximity weighting, Priority's scores and fanout table, and Region's
# accessors and SCC list.
# A comparison whose type is left open compiles to a call into OCaml's
# polymorphic compare or hash instead, so this script lists the undefined
# symbols of each module's native object (`nm -u`) and fails on any
#   - polymorphic compare or hash primitive (caml_compare, caml_equal, ...),
#   - Stdlib.min / Stdlib.max / Stdlib.compare,
#   - List.mem / List.assoc / List.assoc_opt / List.mem_assoc,
# and, in Binding (whose try_bind runs once per candidate), Restraint
# (whose fan-in cone is one byte per op id) and Graph_algo (whose kernels
# keep their per-node state in arrays over the id range), on the generic
# Hashtbl's lookups and inserts, which hash and compare their keys
# polymorphically inside Stdlib.Hashtbl where the first list cannot see it:
#   - Hashtbl.mem / find / find_opt / add / replace.
# Symbol separators differ across compiler versions (`camlStdlib.max_48`
# or `camlStdlib$max_48`), so both are matched.  Run from the repository
# root: `./scripts/hot_path_symbols.sh` (it builds first).
set -eu

modules="Ready_heap Scheduler Asap_alap Restraint Binding Netlist Screen Graph Cycle_detector Graph_algo Priority Region"
# modules also barred from the generic Hashtbl
hashtbl_modules="Binding Restraint Graph_algo"
bad='^(caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal|hash)|camlStdlib[.$](min|max|compare)_[0-9]+|camlStdlib__List[.$](mem|assoc|assoc_opt|mem_assoc)_[0-9]+)$'

hashtbl_bad='^camlStdlib__Hashtbl[.$](mem|find|find_opt|add|replace)_[0-9]+$'

command -v nm >/dev/null 2>&1 || { echo "hot_path_symbols: nm not found" >&2; exit 1; }
dune build @all

status=0
for m in $modules; do
  obj=$(ls _build/default/lib/*/.*.objs/native/*__"$m".o 2>/dev/null | head -n 1)
  if [ -z "$obj" ]; then
    echo "hot_path_symbols: no native object for $m" >&2
    status=1
    continue
  fi
  pattern=$bad
  case " $hashtbl_modules " in *" $m "*) pattern="$bad|$hashtbl_bad" ;; esac
  hits=$(nm -u "$obj" | awk '{print $NF}' | grep -E "$pattern" || true)
  if [ -n "$hits" ]; then
    echo "hot_path_symbols: $m ($obj) references:" >&2
    echo "$hits" | sed 's/^/  /' >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "hot-path symbols OK: no polymorphic compare/hash in $modules, no generic Hashtbl in $hashtbl_modules"
fi
exit "$status"
