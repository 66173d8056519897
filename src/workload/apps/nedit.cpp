/**
 * @file
 * NEdit model.
 *
 * Per the paper, nedit is "primarily used to quickly open,
 * correct/modify source code during compilation or bug fixes",
 * "does not show repetitive behavior since once a file is modified
 * it is saved and nedit is closed", and is "the only application
 * with a single process". Table 1 records exactly one long idle
 * period per execution (29 executions, 29 idle periods): the edit
 * pause between the open and the save. Within one execution there
 * is nothing to learn from — which is precisely why nedit
 * demonstrates the value of carrying prediction tables across
 * executions (Section 4.2): the path is identical every run.
 */

#include "workload/apps.hpp"

#include "workload/actor.hpp"

namespace pcap::workload {

namespace {

constexpr Address kBase = 0x08400000;
constexpr Address kPcConfig = kBase + 0x010;
constexpr Address kPcOpenFile = kBase + 0x020;
constexpr Address kPcReadFile = kBase + 0x030;
constexpr Address kPcSaveFile = kBase + 0x040;
constexpr Address kPcWriteRc = kBase + 0x050;

constexpr FileId kConfigFile = 6000;
constexpr FileId kHelpFile = 6001;
constexpr FileId kSourceBase = 6100;
constexpr FileId kRcFile = 6200;

constexpr Pid kMainPid = 500;

class NeditModel : public AppModel
{
  public:
    NeditModel()
        : info_{"nedit", 29,
                "quick single-file editor; one edit pause per "
                "execution, no in-run repetition"}
    {
    }

    const AppInfo &info() const override { return info_; }

    trace::Trace
    generate(int execution, Rng rng,
             std::vector<trace::TraceEvent> storage) const override
    {
        trace::TraceBuilder builder(info_.name, execution, kMainPid,
                                    std::move(storage));
        Actor main(builder, rng.fork(1), kMainPid, millisUs(50));
        main.setIntraGap(millisUs(10));

        // Startup: read the resource/config files.
        main.readFile(kPcConfig, 4, kConfigFile, 0, 24 * 1024, 4096);
        main.readFile(kPcConfig, 4, kHelpFile, 0, 16 * 1024, 4096);

        // Open the file under repair; a different source file each
        // run (the user is chasing a different bug every time), but
        // through the same code path.
        const FileId source = kSourceBase +
                              static_cast<FileId>(execution % 16);
        main.open(kPcOpenFile, 3, source);
        main.readFile(kPcReadFile, 3, source, 0, 200 * 1024, 4096);

        // The single long idle period: staring at the bug.
        main.think(60.0, 1.3, 10.0, 1200.0);

        // Save and leave immediately.
        main.writeFile(kPcSaveFile, 3, source, 0, 200 * 1024, 4096);
        main.writeFile(kPcWriteRc, 5, kRcFile, 0, 2 * 1024, 2048);

        return builder.finish(main.now() + millisUs(400));
    }

  private:
    AppInfo info_;
};

} // namespace

std::unique_ptr<AppModel>
makeNedit()
{
    return std::make_unique<NeditModel>();
}

} // namespace pcap::workload
