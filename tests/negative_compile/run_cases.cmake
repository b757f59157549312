# Negative-compilation harness for the function-effect annotations, run
# as a ctest case on clang builds (see the top-level CMakeLists.txt):
#
#   cmake -DCOMPILER=<clang++> -DINCLUDE_DIR=<repo>/src \
#         -DCASES_DIR=<this dir> [-DEFFECTS=ON] -P run_cases.cmake
#
# Every effect_*.cpp here is compiled syntax-only with -Wfunction-effects
# under -Werror, and skipped entirely unless EFFECTS is ON (the attributes
# need clang >= 20; below that the macros no-op and the "must fail" cases
# would compile). Cases named *_ok.cpp must compile (guarding the harness
# against a world where everything fails); all others must be REJECTED,
# and specifically with a function-effects diagnostic — a case dying of a
# plain syntax error would silently stop exercising the analysis.
if(NOT COMPILER OR NOT INCLUDE_DIR OR NOT CASES_DIR)
  message(FATAL_ERROR
          "run_cases.cmake requires -DCOMPILER, -DINCLUDE_DIR, -DCASES_DIR")
endif()

file(GLOB cases ${CASES_DIR}/*.cpp)
if(NOT cases)
  message(FATAL_ERROR "no cases found under ${CASES_DIR}")
endif()

foreach(case ${cases})
  get_filename_component(name ${case} NAME_WE)
  if(NOT EFFECTS)
    message(STATUS "${name}: skipped (compiler lacks function effects)")
    continue()
  endif()
  set(analysis -Wfunction-effects)
  set(expect "function-effects")
  execute_process(
    COMMAND ${COMPILER} -std=c++17 -fsyntax-only ${analysis} -Werror
            -I${INCLUDE_DIR} ${case}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(name MATCHES "_ok$")
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "${name}: expected to compile cleanly, but failed:\n${err}")
    endif()
    message(STATUS "${name}: compiled (as expected)")
  else()
    if(rc EQUAL 0)
      message(FATAL_ERROR
              "${name}: expected -W${expect} -Werror to reject it, "
              "but it compiled")
    endif()
    if(NOT err MATCHES "${expect}")
      message(FATAL_ERROR
              "${name}: rejected, but not by the ${expect} analysis "
              "(wrong failure mode):\n${err}")
    endif()
    message(STATUS "${name}: rejected by -W${expect} (as expected)")
  endif()
endforeach()
