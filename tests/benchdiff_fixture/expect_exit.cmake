# cmake -DBENCHDIFF=<exe> -DBASE=<json> -DCUR=<json> -DEXPECT=<code> -P expect_exit.cmake
# Runs flash_benchdiff at its default 15% tolerance and fails unless it
# exits with exactly EXPECT (so a parse error, exit 2, cannot pass for a
# detected regression, exit 1).
execute_process(COMMAND ${BENCHDIFF} ${BASE} ${CUR} RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "flash_benchdiff ${BASE} ${CUR} exited ${rc}, expected ${EXPECT}")
endif()
