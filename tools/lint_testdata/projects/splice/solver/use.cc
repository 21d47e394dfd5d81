// Backslash-newline splices: an #include spelled across a splice must
// still resolve (here to an upward layer edge, reported at the
// directive's ENDING line), and an identifier spliced mid-name must
// still reform into one token (reported at the line it ends on).
#include \
    "apps/view.h" // ursa-lint-test: expect(layer-violation)

namespace solver
{

int
rows(const View &v)
{
    ass\
ert(v.rows >= 0); // ursa-lint-test: expect(bare-assert)
    return v.rows;
}

} // namespace solver
