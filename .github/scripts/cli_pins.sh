#!/usr/bin/env bash
# The pinned CLI outputs and exit codes, run by every CI job after
# `pip install`: it needs the `imputeq` console script on PATH, the repo
# root as the working directory, and RUNNER_TEMP set to a scratch directory.
set -euo pipefail

echo "console script serves the committed tree plan"
imputeq apply --pipeline tests/data/tree_plan_v2.json --data tests/data/mixed.csv --out "$RUNNER_TEMP/applied.csv"
cmp "$RUNNER_TEMP/applied.csv" tests/data/tree_plan_v2_applied.csv

# a ridge chain for every column: the chain round that serving runs
echo "console script serves the committed ridge plan"
imputeq apply --pipeline tests/data/ridge_plan_v2.json --data tests/data/mixed.csv --out "$RUNNER_TEMP/ridge_applied.csv"
cmp "$RUNNER_TEMP/ridge_applied.csv" tests/data/ridge_plan_v2_applied.csv

echo "console script fits the committed config"
imputeq fit --config tests/data/mixed_config.json --out "$RUNNER_TEMP/mixed_fit.json"
echo "d848e48ba4a372a9409bc1700020dabba2051996c14a31c6d01c8e14f6977ab9  $RUNNER_TEMP/mixed_fit.json" | sha256sum -c

# mixed_fit.json holds kNN and empirical-sampling state; the tree plan
# below holds the simple family's and forest and GBT chains
echo "the fitted plan reads back and writes the same bytes"
python -c '
import sys
from imputeq.engine import deserialize_pipeline, serialize_pipeline
blob = open(sys.argv[1], "rb").read()
open(sys.argv[2], "wb").write(serialize_pipeline(deserialize_pipeline(blob)))
' "$RUNNER_TEMP/mixed_fit.json" "$RUNNER_TEMP/mixed_refit.json"
cmp "$RUNNER_TEMP/mixed_fit.json" "$RUNNER_TEMP/mixed_refit.json"

echo "a config value error exits 2 at its document path"
python -c '
import json, sys
doc = json.load(open("tests/data/mixed_config.json"))
doc["splitter"]["params"]["k"] = 1
json.dump(doc, open(sys.argv[1], "w"))
' "$RUNNER_TEMP/k1.json"
rc=0
imputeq fit --config "$RUNNER_TEMP/k1.json" --out "$RUNNER_TEMP/k1_fit.json" 2> "$RUNNER_TEMP/k1.err" || rc=$?
test "$rc" = 2
python -c '
import json, sys
[line] = open(sys.argv[1]).read().splitlines()
assert json.loads(line)["path"] == "splitter.params.k", line
' "$RUNNER_TEMP/k1.err"

echo "a params key that no fit reads exits 2 at its document path"
python -c '
import json, sys
doc = json.load(open("tests/data/mixed_config.json"))
doc["imputers"][2]["params"]["n_trees"] = 5
json.dump(doc, open(sys.argv[1], "w"))
' "$RUNNER_TEMP/unread.json"
rc=0
imputeq fit --config "$RUNNER_TEMP/unread.json" --out "$RUNNER_TEMP/unread_fit.json" 2> "$RUNNER_TEMP/unread.err" || rc=$?
test "$rc" = 2
python -c '
import json, sys
[line] = open(sys.argv[1]).read().splitlines()
assert json.loads(line)["path"] == "imputers[2].params", line
' "$RUNNER_TEMP/unread.err"

echo "a data CSV with a repeated header exits 3"
printf 'a,a,b\n1,2,3\n' > "$RUNNER_TEMP/repeated.csv"
rc=0
imputeq apply --pipeline tests/data/tree_plan_v2.json --data "$RUNNER_TEMP/repeated.csv" --out "$RUNNER_TEMP/repeated_applied.csv" || rc=$?
test "$rc" = 3

echo "a plan value of another type exits 3 at its document path"
python -c '
import json, sys
doc = json.load(open("tests/data/tree_plan_v2.json"))
doc["fitted"][2]["state"]["fill"] = "2.5"
json.dump(doc, open(sys.argv[1], "w"))
' "$RUNNER_TEMP/fill_string.json"
rc=0
imputeq apply --pipeline "$RUNNER_TEMP/fill_string.json" --data tests/data/mixed.csv --out "$RUNNER_TEMP/fill_string.csv" 2> "$RUNNER_TEMP/fill_string.err" || rc=$?
test "$rc" = 3
python -c '
import json, sys
error = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert error["error"] == "CorruptModel", error
assert error["message"].startswith("fitted[2].state.fill: "), error
' "$RUNNER_TEMP/fill_string.err"

echo "a number too large for a float exits 3 at its plan cell"
python -c '
import json, sys
doc = json.load(open("tests/data/tree_plan_v2.json"))
tree = doc["fitted"][0]["state"]["models"]["0"]["trees"][1]
tree["threshold"][0] = "OVERFLOW"
open(sys.argv[1], "w").write(json.dumps(doc).replace("\"OVERFLOW\"", "1e400"))
' "$RUNNER_TEMP/overflow.json"
rc=0
imputeq apply --pipeline "$RUNNER_TEMP/overflow.json" --data tests/data/mixed.csv --out "$RUNNER_TEMP/overflow.csv" 2> "$RUNNER_TEMP/overflow.err" || rc=$?
test "$rc" = 3
python -c '
import json, sys
[line] = open(sys.argv[1]).read().splitlines()
error = json.loads(line)
assert error["error"] == "CorruptModel", error
where = "fitted[0].state.models.0.trees[1].threshold[0]: "
assert error["message"].startswith(where), error
' "$RUNNER_TEMP/overflow.err"

echo "a chain plan without its target's model exits 3 at its models"
python -c '
import json, sys
doc = json.load(open("tests/data/tree_plan_v2.json"))
del doc["fitted"][0]["state"]["models"]["4"]
json.dump(doc, open(sys.argv[1], "w"))
' "$RUNNER_TEMP/no_model.json"
rc=0
imputeq apply --pipeline "$RUNNER_TEMP/no_model.json" --data tests/data/mixed.csv --out "$RUNNER_TEMP/no_model.csv" 2> "$RUNNER_TEMP/no_model.err" || rc=$?
test "$rc" = 3
python -c '
import json, sys
[line] = open(sys.argv[1]).read().splitlines()
error = json.loads(line)
assert error["error"] == "CorruptModel", error
assert error["message"].startswith("fitted[0].state.models: "), error
' "$RUNNER_TEMP/no_model.err"

echo "console script builds a forest dependency graph"
python -c '
import json, sys
doc = json.load(open("tests/data/mixed_config.json"))
doc["dependency_graph"] = {"type": "auto", "top_n": 2}
json.dump(doc, open(sys.argv[1], "w"))
' "$RUNNER_TEMP/graph.json"
imputeq graph --config "$RUNNER_TEMP/graph.json" --out "$RUNNER_TEMP/deps.json"
echo "d3b00c984c669f707750f71fd6e86fdf16b473f3025cda71bced3a77af98c76f  $RUNNER_TEMP/deps.json" | sha256sum -c

# the audit pins its cross-fit and stratified folds and its GBT mask
# classifiers
echo "console script audits the committed config"
imputeq audit --config tests/data/mixed_config.json --levels 0,0.2 --out "$RUNNER_TEMP/audit.json"
echo "45d1949ea2ae87d10a3927a337dc5625714ea63e4da6079959fc6f4782f62e4a  $RUNNER_TEMP/audit.json" | sha256sum -c

echo "the indented plan re-serializes compact and serves the same rows"
python -c '
import json, sys
from imputeq.engine import deserialize_pipeline, serialize_pipeline
blob = open("tests/data/tree_plan_v2.json", "rb").read()
compact = serialize_pipeline(deserialize_pipeline(blob))
assert compact == json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
open(sys.argv[1], "wb").write(compact)
' "$RUNNER_TEMP/compact.json"
echo "0341d90d3355795ed428c49908153486689b332c3be30579e8624b25d1fc6544  $RUNNER_TEMP/compact.json" | sha256sum -c
imputeq apply --pipeline "$RUNNER_TEMP/compact.json" --data tests/data/mixed.csv --out "$RUNNER_TEMP/compact_applied.csv"
cmp "$RUNNER_TEMP/compact_applied.csv" tests/data/tree_plan_v2_applied.csv

echo "console script assesses the committed config and charts its records"
imputeq assess --config tests/data/mixed_config.json --out "$RUNNER_TEMP/quality.json"
# the records pin the ridge chain's scores: the config's iter_ridge is
# scored on all five features (and picked for none, so the fit pin above
# holds no chain)
echo "537e76892d0ba6e70e8588d3f541e6ec5fd79bbd5b9f44bd526a8cd32d99c1f9  $RUNNER_TEMP/quality.json" | sha256sum -c
imputeq report --records "$RUNNER_TEMP/quality.json" --out "$RUNNER_TEMP/quality.svg" > "$RUNNER_TEMP/report.txt"
grep -q "features kept" "$RUNNER_TEMP/report.txt"
test "$(head -c 5 "$RUNNER_TEMP/quality.svg")" = "<?xml"

echo "a records value of another type exits 3 at its document path"
python -c '
import json, sys
doc = json.load(open(sys.argv[1]))
doc["records"][0]["kept"] = "no"
json.dump(doc, open(sys.argv[2], "w"))
' "$RUNNER_TEMP/quality.json" "$RUNNER_TEMP/kept_string.json"
rc=0
imputeq report --records "$RUNNER_TEMP/kept_string.json" --out "$RUNNER_TEMP/kept_string.svg" 2> "$RUNNER_TEMP/kept_string.err" || rc=$?
test "$rc" = 3
python -c '
import json, sys
error = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert error["error"] == "CorruptModel", error
assert error["message"].startswith("records[0].kept: "), error
' "$RUNNER_TEMP/kept_string.err"

echo "a records file that the library wrote with an int threshold draws"
python -c '
import json, sys
from imputeq.report import quality_document
doc = json.load(open(sys.argv[1]))
json.dump(quality_document(doc["records"], 1, doc["columns"]), open(sys.argv[2], "w"))
' "$RUNNER_TEMP/quality.json" "$RUNNER_TEMP/int_threshold.json"
imputeq report --records "$RUNNER_TEMP/int_threshold.json" --out "$RUNNER_TEMP/int_threshold.svg" > /dev/null

echo "a finite table whose score overflows exits 3 with DegenerateInput"
python -c '
import json, sys
import numpy as np
rng = np.random.default_rng(0)
a = rng.normal(size=60) * 1e160
b = rng.normal(size=60)
with open(sys.argv[1] + "/huge.csv", "w") as f:
    f.write("a,b\n")
    for i in range(60):
        f.write(("" if i % 5 == 0 else repr(float(a[i]))) + "," + repr(float(b[i])) + "\n")
json.dump({"data": {"path": sys.argv[1] + "/huge.csv"},
           "splitter": {"type": "kfold", "params": {"k": 3}},
           "imputers": [{"id": "mean", "family": "simple", "params": {"statistic": "mean"}}]},
          open(sys.argv[1] + "/huge.json", "w"))
' "$RUNNER_TEMP"
rc=0
# numpy may warn of the overflow on stderr before the error line
imputeq assess --config "$RUNNER_TEMP/huge.json" --out "$RUNNER_TEMP/huge_quality.json" 2> "$RUNNER_TEMP/huge.err" || rc=$?
test "$rc" = 3
python -c '
import json, sys
error = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert error["error"] == "DegenerateInput", error
' "$RUNNER_TEMP/huge.err"

echo "a fold-score spread that overflows exits 3 with one error line"
python -c '
import json, sys
import numpy as np
a = [repr(float(v)) for v in np.linspace(0, 1e-100, 18)] + [repr(1e100), repr(2e100)]
with open(sys.argv[1] + "/spread.csv", "w") as f:
    f.write("a,b\n")
    for i in range(20):
        f.write(a[i] + "," + str(i) + "\n")
json.dump({"data": {"path": sys.argv[1] + "/spread.csv"}, "seed": 2,
           "splitter": {"type": "kfold", "params": {"k": 2}},
           "imputers": [{"id": "mean", "family": "simple", "params": {"statistic": "mean"}}]},
          open(sys.argv[1] + "/spread.json", "w"))
' "$RUNNER_TEMP"
rc=0
imputeq assess --config "$RUNNER_TEMP/spread.json" --out "$RUNNER_TEMP/spread_quality.json" 2> "$RUNNER_TEMP/spread.err" || rc=$?
test "$rc" = 3
python -c '
import json, sys
[line] = open(sys.argv[1]).read().splitlines()
error = json.loads(line)
assert error["error"] == "DegenerateInput", error
' "$RUNNER_TEMP/spread.err"

echo "an output under a missing directory exits 3 with one DataIoError line"
for cmd in assess apply; do
  if [ "$cmd" = assess ]; then
    args=(assess --config tests/data/mixed_config.json)
  else
    args=(apply --pipeline tests/data/tree_plan_v2.json --data tests/data/mixed.csv)
  fi
  rc=0
  imputeq "${args[@]}" --out "$RUNNER_TEMP/missing_dir/out" 2> "$RUNNER_TEMP/unwritable.err" || rc=$?
  test "$rc" = 3
  python -c '
import json, sys
[line] = open(sys.argv[1]).read().splitlines()
error = json.loads(line)
assert error["error"] == "DataIoError", error
' "$RUNNER_TEMP/unwritable.err"
  test ! -e "$RUNNER_TEMP/missing_dir"
done

echo "recommend-m just above an exact inverse meets its target"
test "$(imputeq recommend-m --gamma 0.5 --efficiency 0.6666666667111111)" = 2
