// splice fixture: a top-layer header that solver/use.cc reaches up to
// through a spliced #include.
struct View
{
    int rows = 0;
};
