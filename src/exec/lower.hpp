// Lowering pass: compiled-program IR -> flat pre-resolved LoweredProgram.
//
// Runs once at FusedExecutor construction and is total: every compiled
// loop, term and reset — top-level ones included — gets a lowered form.
// Operand dependencies and collapsed levels go into flat pools sized by
// the program, so no kernel shape (up to the 64 indices a Kernel admits)
// is ever out of reach.
#pragma once

#include "exec/compiled_program.hpp"
#include "exec/lowered_program.hpp"

namespace spttn {

lowered::LoweredProgram lower_program(const cprog::CompiledView& prog);

}  // namespace spttn
