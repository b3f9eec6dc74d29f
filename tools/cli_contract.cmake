# The rtv command-line contract, checked through the built binary:
#
#   cmake -DRTV=path/to/rtv -DSOURCE_DIR=path/to/repo -DCHECK=NAME \
#         -P tools/cli_contract.cmake
#
# CHECK is one of
#   help           rtv help, rtv --help and rtv CMD --help print to stdout
#                  and exit 0, for every subcommand;
#   usage_errors   a flag or operand outside a subcommand's set exits 64
#                  and names the subcommand, and nothing runs;
#   numeric_range  a numeric value that does not fit its field exits 64
#                  instead of wrapping;
#   json_stdout    `--json -` writes the JSON document, and nothing else,
#                  to stdout, and creates no file named `-`;
#   docs_synopsis  the synopsis block of docs/CLI.md equals rtv help's.
# Files the commands would write land in the working directory.
cmake_minimum_required(VERSION 3.16)

set(DATA ${SOURCE_DIR}/examples/data)

# Runs rtv with ARGN; sets rc, out and err in the caller.
macro(run_rtv)
  execute_process(COMMAND ${RTV} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
endmacro()

# Runs rtv with ARGN and fails unless it exits `want` with stderr matching
# `err_regex`.
function(expect want err_regex)
  run_rtv(${ARGN})
  if(NOT rc STREQUAL want OR NOT err MATCHES "${err_regex}")
    message(FATAL_ERROR "rtv ${ARGN}: exit ${rc}, want ${want} and stderr "
      "matching '${err_regex}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

function(expect_help out_regex)
  run_rtv(${ARGN})
  if(NOT rc STREQUAL "0" OR NOT out MATCHES "${out_regex}"
     OR NOT err STREQUAL "")
    message(FATAL_ERROR "rtv ${ARGN}: exit ${rc}, want 0 and stdout "
      "matching '${out_regex}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

if(CHECK STREQUAL "help")
  expect_help("^usage:\nrtv verify .*\nrtv minimize " help)
  expect_help("^usage:\nrtv verify .*\nrtv minimize " --help)
  foreach(cmd verify suite portfolio engines lint slice fuzz ipcmos serve
              client simulate dot minimize)
    expect_help("^usage:\nrtv ${cmd} .*--trace FILE" ${cmd} --help)
    expect_help("^usage:\nrtv ${cmd} " help ${cmd})
  endforeach()
elseif(CHECK STREQUAL "usage_errors")
  file(REMOVE x.json)
  expect(64 "^rtv verify: unexpected flag --json\nusage:\nrtv verify "
         verify ${DATA}/toggle.g --json x.json)
  if(EXISTS x.json)
    message(FATAL_ERROR "rtv verify --json wrote x.json")
  endif()
  expect(64 "^rtv ipcmos: unexpected flag --cases\n" ipcmos --cases 5)
  expect(64 "^rtv ipcmos: unexpected flag --socket\n"
         ipcmos --socket x --engines zone)
  expect(64 "^rtv ipcmos: unexpected operand a.g\n" ipcmos a.g)
  expect(64 "^rtv engines: unexpected operand a.g\n" engines a.g)
  expect(64 "^rtv slice: unexpected flag --engine\n"
         slice ${DATA}/toggle.g --engine zone)
  expect(64 "^rtv dot: unexpected flag --seed\n" dot ${DATA}/toggle.g --seed 3)
  expect(64 "^rtv dot: takes exactly one" dot)
  expect(64 "^rtv verify: needs at least one" verify)
  expect(64 "^rtv serve: missing --socket\n" serve --jobs 2)
  expect(64 "^rtv fuzz: missing value for --seed\n" fuzz --seed)
  # A campaign with neither a case limit nor a deadline is a bad flag
  # combination, caught before it starts.
  expect(64 "^rtv fuzz: needs --cases N or --seconds S above 0\n"
         fuzz --cases 0)
  expect(64 "^rtv: unknown subcommand 'nosuch'\n" nosuch)
  # Engine names are checked while parsing, before any file or socket.
  expect(64 "^unknown engine 'nosuch'; registered engines:\n"
         client --socket no.sock a.g --engines nosuch)
elseif(CHECK STREQUAL "numeric_range")
  # Each used to wrap: 2^32 + 2 modules ran as 2, and 2^64 - 1 ticks
  # became a max_delay of -1 in the campaign config.
  expect(64 "^invalid value '4294967298' for --modules\n"
         fuzz --modules 4294967298 --cases 2)
  expect(64 "^invalid value '18446744073709551615' for --max-delay\n"
         fuzz --max-delay 18446744073709551615)
  expect(64 "^invalid value '4294967296' for --padding-modules\n"
         fuzz --padding-modules 4294967296)
  expect(64 "^invalid value '-1' for --jobs\n" verify ${DATA}/toggle.g --jobs -1)
elseif(CHECK STREQUAL "json_stdout")
  file(REMOVE -)
  run_rtv(suite ${DATA}/toggle.g --json -)
  if(EXISTS -)
    message(FATAL_ERROR "rtv suite --json - wrote a file named '-'")
  endif()
  if(NOT rc STREQUAL "0" OR NOT out MATCHES "^{\n  \"schema\": \"rtv-suite-report\".*}\n$")
    message(FATAL_ERROR "rtv suite --json -: exit ${rc}, want 0 and stdout "
      "holding only the JSON report\nstdout:\n${out}\nstderr:\n${err}")
  endif()
elseif(CHECK STREQUAL "docs_synopsis")
  run_rtv(help)
  string(REGEX REPLACE "^usage:\n" "" help_block "${out}")
  string(FIND "${help_block}" "\n\n" end)
  string(SUBSTRING "${help_block}" 0 ${end} help_block)
  file(READ ${SOURCE_DIR}/docs/CLI.md doc)
  string(FIND "${doc}" "```\n" begin)
  math(EXPR begin "${begin} + 4")
  string(SUBSTRING "${doc}" ${begin} -1 doc)
  string(FIND "${doc}" "\n```" end)
  string(SUBSTRING "${doc}" 0 ${end} doc_block)
  if(NOT doc_block STREQUAL help_block)
    message(FATAL_ERROR "docs/CLI.md's synopsis differs from `rtv help`; "
      "paste this block over it:\n${help_block}")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
