# Negative self-test: run ursa-lint --self-test against the
# deliberately broken fixtures in tools/lint_testdata_broken/ and
# assert that it (a) fails, and (b) names the right file:line for
# every planted defect — an unfired bait, an unsilenced suppression,
# a fixture project whose cross-file violations have no directives,
# and catalogue rules that no bait fires. A self-test harness that
# cannot fail tests nothing.
#
# Usage: cmake -DLINT_BIN=<ursa-lint> -DTESTDATA=<dir> -P this_file
if(NOT LINT_BIN OR NOT TESTDATA)
  message(FATAL_ERROR "pass -DLINT_BIN=<ursa-lint> -DTESTDATA=<dir>")
endif()

execute_process(
  COMMAND ${LINT_BIN} --self-test --testdata ${TESTDATA}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(log "${out}${err}")

if(rc EQUAL 0)
  message(FATAL_ERROR
    "--self-test passed on the broken fixture tree; it must fail")
endif()
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "--self-test exited ${rc} on the broken fixture tree (want 1, the "
    "self-test-failure code, not a usage error):\n${log}")
endif()

# Each planted defect must be reported with its exact file:line.
set(expected
  "bait core/unfired_bait.cc:4 did not trigger [wall-clock]"
  "suppression core/unsilenced_suppression.cc:6 failed to silence [wall-clock]"
  "clean line projects/badcycle/trace/loop_a.h:4 wrongly triggered [layer-cycle]"
  "clean line projects/badcycle/trace/loop_b.h:2 wrongly triggered [layer-cycle]"
  "bait projects/quiet/sim/quiet.cc:9 did not trigger [sim-nondeterminism]"
  "bait projects/quiet/sim/quiet.cc:16 did not trigger [blocking-in-sim]"
  "bait projects/quiet/sim/quiet.cc:22 did not trigger [unbounded-recursion]"
  "rule atomic-refcount has no firing bait")
foreach(msg IN LISTS expected)
  string(FIND "${log}" "${msg}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "self-test output is missing \"${msg}\"; got:\n${log}")
  endif()
endforeach()
message(STATUS "negative self-test OK: all planted defects named")
